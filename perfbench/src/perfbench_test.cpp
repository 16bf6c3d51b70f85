// Tests of the benchmark itself: flag rejection, the build refusal,
// traced-vs-untraced equality of every workload's outputs, and that each
// independent checker rejects a deliberately corrupted result.
//
//   perfbench_test <path to randsync_perfbench> <path to BENCHMARK.json>
#include <cstdio>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "args.h"
#include "build_info.h"
#include "checks.h"
#include "core/general_adversary.h"
#include "protocols/registry.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

std::string g_binary;
std::string g_spec_path;

std::vector<int> bits(const std::string& text) {
  std::vector<int> out;
  for (const char c : text) {
    out.push_back(c - '0');
  }
  return out;
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

void test_flag_parsing() {
  const auto ok = [](std::vector<std::string> argv) {
    return parse_args(argv).args.has_value();
  };
  CHECK(ok({"--workload", "explore", "--seed", "7", "--seconds", "10",
            "--trace", "0"}));
  CHECK(ok({"--workload=attack", "--seed=18446744073709551615",
            "--threads=256", "--trace=1"}));
  const auto parsed = parse_args({"--workload", "fuzz-n4", "--seed", "42",
                                  "--seconds=3", "--threads", "2"});
  CHECK(parsed.args && parsed.args->seed == 42 &&
        parsed.args->seconds == 3 && parsed.args->threads == 2);

  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "explore", "--threads=abc"},    // non-numeric
      {"--workload", "explore", "--seconds", "5x"},  // trailing junk
      {"--workload", "explore", "--seconds", " 5"},  // leading junk
      {"--workload", "explore", "--seed=-1"},        // negative
      {"--workload", "explore", "--threads", "-4"},  // negative
      {"--workload", "explore", "--seed", "+3"},     // sign
      {"--workload", "explore", "--seed=18446744073709551616"},  // overflow
      {"--workload", "explore", "--threads=0"},      // below range
      {"--workload", "explore", "--threads=257"},    // above range
      {"--workload", "explore", "--seconds=0"},
      {"--workload", "explore", "--seconds=3601"},
      {"--workload", "explore", "--trace=2"},
      {"--workload", "explore", "--seconds="},       // empty
      {"--workload", "explore", "--seconds"},        // missing value
      {"--workload", "nope"},                        // unknown workload
      {"--seed", "1"},                               // no workload
      {"--workload", "explore", "--speed", "1"},     // unknown flag
      {"--workload", "explore", "stray"},
  };
  for (const auto& argv : bad) {
    const ParseResult r = parse_args(argv);
    CHECK(!r.args);
    CHECK(!r.error.empty() && r.error.find('\n') == std::string::npos);
  }

  // Rejecting a huge thread count starts no thread: parsing is pure.
  const int before = thread_count();
  CHECK(!parse_args({"--workload", "explore", "--threads", "1000000000"}).args);
  CHECK(thread_count() == before);

  // The binary exits 2 with one line on stderr and nothing on stdout.
  for (const std::string flags :
       {"--threads=abc", "--seconds=5x", "--seed=-1", "--threads=1000000"}) {
    const std::string cmd = g_binary + " --workload explore " + flags +
                            " >perfbench_test.out 2>perfbench_test.err";
    const int status = std::system(cmd.c_str());
    CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 2);
    std::ifstream out("perfbench_test.out");
    std::ifstream err("perfbench_test.err");
    const std::string stdout_text((std::istreambuf_iterator<char>(out)), {});
    std::string line;
    int lines = 0;
    while (std::getline(err, line)) {
      ++lines;
    }
    CHECK(stdout_text.empty());
    CHECK(lines == 1);
  }
  std::remove("perfbench_test.out");
  std::remove("perfbench_test.err");
}

void test_build_refusal() {
  BuildInfo clean;
  clean.build_type = "Release";
  CHECK(timing_refusal(clean).empty());
  BuildInfo asserts = clean;
  asserts.assertions = true;
  CHECK(!timing_refusal(asserts).empty());
  BuildInfo sanitized = clean;
  sanitized.sanitizers = true;
  CHECK(!timing_refusal(sanitized).empty());
  CHECK(current_build().cores > 0);
}

void test_tracing_changes_no_output() {
  for (const std::string& name : workload_names()) {
    Args args;
    args.workload = name;
    args.seed = 5;
    args.threads = 2;
    args.scratch = "perfbench_test_scratch";
    const auto untraced = make_workload(args, Scale::kSmall);
    untraced->setup();
    untraced->round(nullptr);
    untraced->after_round();
    const auto traced = make_workload(args, Scale::kSmall);
    traced->setup();
    Tracer tracer(1);
    traced->round(&tracer);
    traced->after_round();
    CHECK(!untraced->outputs().empty());
    CHECK(untraced->outputs() == traced->outputs());
    CHECK(!tracer.spans().empty());
    CHECK(untraced->failed() == 0 && traced->failed() == 0);
    const Findings findings = traced->check();
    for (const std::string& f : findings) {
      std::fprintf(stderr, "  %s: %s\n", name.c_str(), f.c_str());
    }
    CHECK(findings.empty());
  }
}

void test_traced_runs_report_layer_metrics() {
  const std::vector<std::pair<std::string, std::vector<std::string>>> expect = {
      {"explore",
       {"explore.full.call_s", "explore.thread_speedup", "runtime.step_ns",
        "runtime.fingerprint_ns", "state_set.claim_ns",
        "symmetry.canonical_fp_ns", "por.persistent_set_ns",
        "store.capped.call_s", "store.spilled_bytes",
        "store.spill_read_mib_per_s", "store.rebuild_ns_per_step",
        "layer.verify.self_s", "layer.runtime.self_s"}},
      {"fuzz-n4",
       {"fuzz.uniform.call_s", "fuzz.thread_speedup", "fuzz.rewind_ns",
        "policy.bursts.next_ns", "policy.pick_share",
        "runtime.all_decided_ns", "objects.apply_ns"}},
      {"fuzz-n128", {"fuzz.write-cover.call_s", "policy.write-cover.next_ns"}},
      {"attack",
       {"attack.clone.call_ms", "attack.general.execution_steps",
        "runtime.solo_terminate_us", "runtime.clone_large_us",
        "layer.core.self_s"}},
  };
  for (const auto& [workload, metrics] : expect) {
    Args args;
    args.workload = workload;
    args.trace = true;
    args.threads = 2;
    args.scratch = "perfbench_test_scratch";
    const RunReport report = run_benchmark(args, Scale::kSmall);
    for (const std::string& f : report.findings) {
      std::fprintf(stderr, "  %s: %s\n", workload.c_str(), f.c_str());
    }
    CHECK(report.correct);
    CHECK(report.attempted > 0 && report.failed == 0);
    CHECK(report.metrics.count("trace.overhead") == 1);
    CHECK(!report.spans_jsonl.empty());
    for (const std::string& name : metrics) {
      const auto it = report.metrics.find(name);
      CHECK(it != report.metrics.end() && it->second > 0);
      if (it == report.metrics.end() || !(it->second > 0)) {
        std::fprintf(stderr, "  %s: %s missing or not positive\n",
                     workload.c_str(), name.c_str());
      }
    }
    // Every figure is a listed metric, except the small sweep's per-r
    // attack times.
    for (const auto& [name, value] : report.metrics) {
      bool known = name.rfind("attack.general.r", 0) == 0 &&
                   name.find(".call_ms") != std::string::npos;
      for (const MetricSpec& spec : per_layer_metrics()) {
        known = known || spec.name == name;
      }
      CHECK(known);
    }
  }
}

void test_explore_checkers_reject_corruption() {
  const auto protocol = randsync::find_protocol("conciliator")->make(3);
  const std::vector<int> inputs = bits("000");
  randsync::ExploreOptions opt;
  const randsync::ExploreResult full = randsync::explore(*protocol, inputs, opt);
  opt.reduction = opt.symmetry = true;
  const randsync::ExploreResult reduced =
      randsync::explore(*protocol, inputs, opt);
  const ReferenceSearch ref = reference_bfs(*protocol, inputs, 1, 64);
  CHECK(check_explore_legs(full, reduced, inputs).empty());
  CHECK(check_against_reference(full, ref).empty());

  auto bad = full;
  bad.one_reachable = true;  // all-zero inputs cannot decide 1
  CHECK(!check_explore_legs(bad, reduced, inputs).empty());
  bad = reduced;
  bad.safe = false;
  CHECK(!check_explore_legs(full, bad, inputs).empty());
  bad = reduced;
  bad.states = full.states + 1;
  CHECK(!check_explore_legs(full, bad, inputs).empty());
  bad = full;
  bad.states += 1;
  CHECK(!check_against_reference(bad, ref).empty());
  bad = full;
  bad.transitions -= 1;
  CHECK(!check_against_reference(bad, ref).empty());
}

void test_spill_checker_rejects_corruption() {
  const auto protocol = randsync::find_protocol("counter-walk")->make(std::nullopt);
  const std::vector<int> inputs = bits("01010");
  randsync::ExploreOptions opt;
  opt.max_depth = 9;
  const randsync::ExploreResult uncapped =
      randsync::explore(*protocol, inputs, opt);
  opt.max_resident_bytes = std::size_t{2} << 20;
  opt.spill_dir = "perfbench_test_scratch/spill-checker";
  const randsync::ExploreResult capped =
      randsync::explore(*protocol, inputs, opt);
  const std::size_t budget = opt.max_resident_bytes;
  CHECK(check_spill(capped, uncapped, budget).empty());
  auto bad = capped;
  bad.transitions += 1;
  CHECK(!check_spill(bad, uncapped, budget).empty());
  bad = capped;
  bad.spilled_bytes = 0;
  CHECK(!check_spill(bad, uncapped, budget).empty());
  bad = capped;
  bad.total_bytes = budget + 1;
  CHECK(!check_spill(bad, uncapped, budget).empty());
  bad = capped;
  bad.truncated = true;
  CHECK(!check_spill(bad, uncapped, budget).empty());
}

void test_fuzz_checker_rejects_corruption() {
  const auto protocol =
      randsync::find_protocol("faa-consensus")->make(std::nullopt);
  const std::vector<int> inputs = bits("0101");
  randsync::FuzzOptions opt;
  opt.trials = 4000;
  const randsync::FuzzResult result = randsync::fuzz(*protocol, inputs, opt);
  const TrialStats runner = run_trials(*protocol, inputs, opt.policy, 9,
                                         2000, opt.max_steps);
  CHECK(runner.trials == 2000 && runner.decided == 2000);
  CHECK(runner.disagreements == 0 && runner.invalid == 0);
  CHECK(check_fuzz(result, opt.trials, runner, "t").empty());
  auto bad = result;
  bad.violations = 1;
  CHECK(!check_fuzz(bad, opt.trials, runner, "t").empty());
  bad = result;
  bad.decided -= 1;
  bad.undecided += 1;
  CHECK(!check_fuzz(bad, opt.trials, runner, "t").empty());
  bad = result;
  bad.total_steps *= 2;  // mean steps per schedule far off the runner's
  CHECK(!check_fuzz(bad, opt.trials, runner, "t").empty());
  TrialStats split = runner;
  split.disagreements = 1;
  CHECK(!check_fuzz(result, opt.trials, split, "t").empty());
}

void test_attack_checker_rejects_corruption() {
  const auto protocol = randsync::find_protocol("historyless-mixed")->make(4);
  const auto result = randsync::GeneralAdversary().attack(*protocol);
  CHECK(result.success);
  const auto space = protocol->make_space(2);
  const std::size_t bound = 3 * 4 * 4 + 4;
  CHECK(check_attack_execution(result.execution, *space,
                               result.processes_used, bound, "t")
            .empty());
  CHECK(!check_attack_execution(result.execution, *space,
                                result.processes_used, 10, "t")
             .empty());
  CHECK(!check_attack_execution(result.execution, *space,
                                result.processes_used + 1, bound, "t")
             .empty());
  // A response the objects never gave.
  randsync::Trace forged;
  bool changed = false;
  for (randsync::Step step : result.execution.steps()) {
    if (!changed && step.inv.object != randsync::kNoObject) {
      step.response += 1;
      changed = true;
    }
    forged.append(step);
  }
  CHECK(changed);
  CHECK(!check_attack_execution(forged, *space, result.processes_used, bound,
                                "t")
             .empty());
  // An execution that never decides 1.
  randsync::Trace half;
  for (const randsync::Step& step : result.execution.steps()) {
    if (step.decided && *step.decided == 1) {
      break;
    }
    half.append(step);
  }
  CHECK(!check_attack_execution(half, *space, result.processes_used, bound,
                                "t")
             .empty());
}

/// The metric lists in BENCHMARK.json match what the binary prints.
void test_spec_matches_benchmark_json() {
  std::ifstream in(g_spec_path);
  CHECK(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)), {});
  const auto section = [&](const std::string& key) {
    const std::size_t start = text.find("\"" + key + "\"");
    const std::size_t end = text.find(']', start);
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t at = start;
    while ((at = text.find("\"name\": \"", at)) < end) {
      at += 9;
      const std::string name = text.substr(at, text.find('"', at) - at);
      const std::size_t unit_at = text.find("\"unit\": \"", at) + 9;
      out.emplace_back(name,
                       text.substr(unit_at, text.find('"', unit_at) - unit_at));
    }
    return out;
  };
  const auto check_list = [&](const std::string& key,
                              const std::vector<MetricSpec>& specs) {
    const auto listed = section(key);
    CHECK(listed.size() == specs.size());
    for (std::size_t i = 0; i < listed.size() && i < specs.size(); ++i) {
      CHECK(listed[i].first == specs[i].name);
      CHECK(listed[i].second == specs[i].unit);
    }
  };
  check_list("end_to_end", end_to_end_metrics());
  check_list("per_layer", per_layer_metrics());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: perfbench_test <randsync_perfbench> <BENCHMARK.json>\n");
    return 2;
  }
  g_binary = argv[1];
  g_spec_path = argv[2];
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"flag_parsing", test_flag_parsing},
      {"build_refusal", test_build_refusal},
      {"tracing_changes_no_output", test_tracing_changes_no_output},
      {"traced_runs_report_layer_metrics",
       test_traced_runs_report_layer_metrics},
      {"explore_checkers_reject_corruption",
       test_explore_checkers_reject_corruption},
      {"spill_checker_rejects_corruption",
       test_spill_checker_rejects_corruption},
      {"fuzz_checker_rejects_corruption", test_fuzz_checker_rejects_corruption},
      {"attack_checker_rejects_corruption",
       test_attack_checker_rejects_corruption},
      {"spec_matches_benchmark_json", test_spec_matches_benchmark_json},
  };
  for (const auto& [name, test] : tests) {
    const int before = g_failures;
    test();
    std::fprintf(stderr, "[%s] %s\n", g_failures == before ? "PASS" : "FAIL",
                 name);
  }
  std::filesystem::remove_all("perfbench_test_scratch");
  return g_failures == 0 ? 0 : 1;
}
