#include "spans.h"

#include <stdexcept>

#include "json.h"

namespace perfbench {

int Tracer::begin(const std::string& name, const std::string& layer,
                  std::uint64_t calls) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = run_id_;
  span.calls = calls;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order: " +
                           spans_.at(static_cast<std::size_t>(index)).name);
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

double Tracer::seconds(int index) const {
  const Span& s = spans_.at(static_cast<std::size_t>(index));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += seconds(static_cast<int>(i));
    if (spans_[i].parent >= 0) {
      self[spans_[static_cast<std::size_t>(spans_[i].parent)].layer] -=
          seconds(static_cast<int>(i));
    }
  }
  return self;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject line;
    line.add("id", static_cast<std::uint64_t>(i));
    line.add("parent", static_cast<double>(s.parent));
    line.add("run_id", s.run_id);
    line.add("name", s.name);
    line.add("layer", s.layer);
    line.add("start_ns", static_cast<std::uint64_t>(s.start_ns));
    line.add("end_ns", static_cast<std::uint64_t>(s.end_ns));
    line.add("calls", s.calls);
    out += line.str() + "\n";
  }
  return out;
}

}  // namespace perfbench
