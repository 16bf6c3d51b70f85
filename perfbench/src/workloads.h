// The benchmark's workloads and the loop that times them.
//
// A workload is set up (protocols built, thread counts fixed, warm-up
// run), then runs whole ROUNDS of the same jobs -- calls into the
// library's entry points explore(), fuzz(), CloneAdversary::attack()
// and GeneralAdversary::attack() -- and finally checks its outputs
// against computations done apart from the library (checks.h).  Every
// round repeats identical inputs, so its results must repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "args.h"
#include "checks.h"
#include "probes.h"
#include "spans.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Reported by every untraced run.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run; 0 where the workload does not run the
/// layer.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Deterministic work counts, a pure function of (workload, seed).
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build protocol instances and run the warm-up.
  virtual void setup() = 0;
  /// One round of jobs; `tracer` is null in untraced runs.
  virtual void round(Tracer* tracer) = 0;
  /// After each round, outside its timing: compare its results with the
  /// first round's.
  virtual void after_round() = 0;
  [[nodiscard]] virtual std::uint64_t jobs_per_round() const = 0;
  /// Work units of one round (states, schedules or attacks).
  [[nodiscard]] virtual double work_per_round() const = 0;
  /// Independent checks of the last round's outputs.
  [[nodiscard]] virtual Findings check() = 0;
  [[nodiscard]] virtual Counts counts() const = 0;
  /// Traced run only: per-layer figures from the traced round's spans
  /// and results, plus the layer probes.
  virtual void layers(Tracer& tracer, Values& out) = 0;
  /// The last round's results, rendered in full (tests compare these
  /// between traced and untraced runs).
  [[nodiscard]] virtual std::string outputs() const = 0;

  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Findings made while running: a round whose results differ from
  /// the first round's, or a traced leg whose outputs fail a check.
  [[nodiscard]] const Findings& run_findings() const {
    return run_findings_;
  }

 protected:
  std::uint64_t failed_ = 0;
  Findings run_findings_;
};

/// Sizes: kBenchmark for the benchmark, kSmall for the tests.
enum class Scale { kBenchmark, kSmall };

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Args& args,
                                                      Scale scale);

/// Everything one run measured.
struct RunReport {
  bool correct = true;
  Findings findings;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values metrics;
  Counts counts;
  std::vector<double> setup_s;
  std::vector<double> round_s;
  std::string spans_jsonl;  ///< traced runs only
};

/// Set up `args.workload` several times, run rounds for args.seconds
/// (or, traced, one untraced and one traced round plus the probes),
/// then check the outputs.
[[nodiscard]] RunReport run_benchmark(const Args& args, Scale scale);

}  // namespace perfbench
