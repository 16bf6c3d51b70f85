// Spans recorded by the traced run, only in the benchmark's own files:
// around each call into a library entry point and around each probe
// batch.  The library itself is never instrumented, so tracing cannot
// change a result.  Spans stay in memory and are written out as JSON
// lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string layer;  ///< runtime, objects, protocols, core, verify, bench
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;    ///< index of the enclosing open span, -1 at the root
  std::uint64_t run_id = 0;
  std::uint64_t calls = 1;  ///< calls timed together in this span (a batch)
};

/// Single-threaded span recorder (the benchmark opens spans only from
/// its main thread).
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  /// Open a span under the innermost open one; returns its index.
  int begin(const std::string& name, const std::string& layer,
            std::uint64_t calls = 1);
  /// Close span `index` (the innermost open one).
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `index` in seconds.
  [[nodiscard]] double seconds(int index) const;
  /// Per layer: total span time minus the time covered by child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// One JSON object per line.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& layer,
        std::uint64_t calls = 1)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(name, layer, calls) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
