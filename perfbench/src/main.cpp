// randsync_perfbench: runs one workload of the benchmark and prints, as
// its last stdout line, {"correct", "attempted", "failed", "metrics"}.
// The line before it is the full report (build, counts, per-round
// times, findings) that compare.py reads.
//
//   randsync_perfbench --workload explore --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 outputs checked and correct; 1 an output check failed
// (the result line is still printed); 2 bad flags or a build that must
// not be timed (nothing printed on stdout).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "args.h"
#include "build_info.h"
#include "json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string metrics_json(const RunReport& report,
                         const std::vector<MetricSpec>& specs) {
  JsonObject metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = report.metrics.find(spec.name);
    JsonObject value;
    value.add("value", it == report.metrics.end() ? 0.0 : it->second);
    value.add("unit", spec.unit);
    metrics.add_raw(spec.name, value.str());
  }
  return metrics.str();
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

std::string report_json(const Args& args, const BuildInfo& build,
                        const RunReport& report) {
  JsonObject counts;
  for (const auto& [name, value] : report.counts) {
    counts.add(name, value);
  }
  std::string findings = "[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    findings += (i == 0 ? "" : ", ") + json_string(report.findings[i]);
  }
  findings += "]";
  JsonObject out;
  out.add("workload", args.workload);
  out.add("seed", args.seed);
  out.add("seconds", args.seconds);
  out.add("trace", args.trace);
  out.add("threads", static_cast<std::uint64_t>(args.threads));
  out.add_raw("build", build_info_json(build));
  out.add_raw("setup_s", list_json(report.setup_s));
  out.add_raw("round_s", list_json(report.round_s));
  out.add_raw("counts", counts.str());
  out.add_raw("findings", findings);
  return JsonObject().add_raw("perfbench_report", out.str()).str();
}

void write_spans(const Args& args, const std::string& jsonl) {
  const std::filesystem::path dir =
      std::filesystem::path(args.scratch) / "traces";
  std::filesystem::create_directories(dir);
  const auto path =
      dir / (args.workload + "-seed" + std::to_string(args.seed) + ".jsonl");
  std::ofstream(path) << jsonl;
  std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const ParseResult parsed =
      parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.args) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.error.c_str());
    return 2;
  }
  const Args& args = *parsed.args;
  const BuildInfo build = current_build();
  if (const std::string refusal = timing_refusal(build); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", refusal.c_str());
    return 2;
  }
  try {
    std::filesystem::create_directories(args.scratch);
    const RunReport report = run_benchmark(args, Scale::kBenchmark);
    for (const std::string& finding : report.findings) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", finding.c_str());
    }
    if (args.trace) {
      write_spans(args, report.spans_jsonl);
    }
    JsonObject result;
    result.add("correct", report.correct);
    result.add("attempted", report.attempted);
    result.add("failed", report.failed);
    result.add_raw("metrics",
                   metrics_json(report, args.trace ? per_layer_metrics()
                                                   : end_to_end_metrics()));
    std::printf("%s\n%s\n", report_json(args, build, report).c_str(),
                result.str().c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
