#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <unistd.h>

#include "core/bounds.h"
#include "core/clone_adversary.h"
#include "core/general_adversary.h"
#include "protocols/harness.h"
#include "protocols/registry.h"
#include "runtime/coin.h"
#include "runtime/executor.h"
#include "verify/explorer.h"
#include "verify/fuzz.h"

namespace perfbench {

using randsync::ConsensusProtocol;
using randsync::ExploreOptions;
using randsync::ExploreResult;
using randsync::FuzzOptions;
using randsync::FuzzResult;
using randsync::PolicyKind;

namespace {

const std::int64_t g_process_start_ns = now_ns();

// The attack workload's sweep over the general adversary's register
// count r; its cost grows roughly as r^3.
const std::vector<std::size_t> kGeneralSweep = {16, 32, 48, 64, 80, 96};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> bits(const std::string& text) {
  std::vector<int> out;
  for (const char c : text) {
    out.push_back(c - '0');
  }
  return out;
}

std::shared_ptr<const ConsensusProtocol> make_protocol(
    const std::string& name, std::optional<std::size_t> param) {
  const randsync::ProtocolEntry* entry = randsync::find_protocol(name);
  if (entry == nullptr) {
    throw std::logic_error("protocol not in the registry: " + name);
  }
  return entry->make(param);
}

/// Runs one job; an exception counts the job as failed.
template <typename T, typename Fn>
std::optional<T> attempt(std::uint64_t& failed, const std::string& what,
                         Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    ++failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), e.what());
    return std::nullopt;
  }
}

/// Every field of an ExploreResult, for output comparison.
std::string render(const ExploreResult& r) {
  std::string s = "safe=" + std::to_string(r.safe) +
                  " complete=" + std::to_string(r.complete) +
                  " states=" + std::to_string(r.states) +
                  " transitions=" + std::to_string(r.transitions) +
                  " deepest=" + std::to_string(r.deepest) +
                  " valence=" + std::to_string(r.zero_valent) + "/" +
                  std::to_string(r.one_valent) + "/" +
                  std::to_string(r.bivalent) +
                  " reach=" + std::to_string(r.zero_reachable) +
                  std::to_string(r.one_reachable) +
                  " dedup=" + std::to_string(r.dedup_hits) +
                  " orbit=" + std::to_string(r.orbit_merges) +
                  " seen=" + std::to_string(r.seen_bytes) +
                  " audit=" + std::to_string(r.audit_mismatches) +
                  " total=" + std::to_string(r.total_bytes) +
                  " spilled=" + std::to_string(r.spilled_bytes) +
                  " truncated=" + std::to_string(r.truncated) + " kind=" +
                  r.violation_kind + " witness=";
  for (const randsync::ProcessId pid : r.violation_schedule) {
    s += std::to_string(pid) + ",";
  }
  return s + "\n";
}

std::string render(const randsync::Trace& trace) {
  std::string s;
  for (const randsync::Step& step : trace.steps()) {
    s += randsync::to_string(step) + "\n";
  }
  return s;
}

template <typename T>
void note_repeat(const std::optional<T>& first, const std::optional<T>& now,
                 const std::string& what, Findings& out) {
  if (first.has_value() != now.has_value() || (first && !(*first == *now))) {
    out.push_back(what + ": a repeated round gave a different result");
  }
}

// ---------------------------------------------------------------- explore

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload(const Args& args, Scale scale)
      : args_(args),
        inputs_(bits(scale == Scale::kBenchmark ? "00000" : "000")),
        warm_inputs_(bits(scale == Scale::kBenchmark ? "0000" : "00")),
        store_inputs_(bits(scale == Scale::kBenchmark ? "010101" : "01010")),
        store_depth_(scale == Scale::kBenchmark ? 11 : 9),
        store_budget_(scale == Scale::kBenchmark ? std::size_t{64} << 20
                                                 : std::size_t{2} << 20),
        spill_dir_(args.scratch + "/spill-" + std::to_string(::getpid())) {}

  ~ExploreWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }
  ExploreWorkload(const ExploreWorkload&) = delete;
  ExploreWorkload& operator=(const ExploreWorkload&) = delete;

  void setup() override {
    protocol_ = make_protocol("conciliator", 3);
    for (const bool reduced : {false, true}) {
      (void)randsync::explore(*protocol_, warm_inputs_, options(reduced, 0));
    }
  }

  void round(Tracer* tracer) override {
    full_ = leg(tracer, "explore.full", false, full_s_);
    reduced_ = leg(tracer, "explore.reduced", true, reduced_s_);
  }

  void after_round() override {
    if (rounds_++ == 0) {
      first_full_ = full_;
      first_reduced_ = reduced_;
    }
    note_repeat(first_full_, full_, "explore.full", run_findings_);
    note_repeat(first_reduced_, reduced_, "explore.reduced", run_findings_);
  }

  [[nodiscard]] std::uint64_t jobs_per_round() const override { return 2; }

  [[nodiscard]] double work_per_round() const override {
    // Both legs cover the instance's full reachable state space.
    return full_ ? 2.0 * static_cast<double>(full_->states) : 0.0;
  }

  [[nodiscard]] Findings check() override {
    Findings out;
    if (full_ && reduced_) {
      append(out, check_explore_legs(*full_, *reduced_, inputs_));
      const std::set<randsync::Value> seen = walk_decisions();
      if ((seen.count(0) != 0 && !full_->zero_reachable) ||
          (seen.count(1) != 0 && !full_->one_reachable)) {
        out.push_back("a random schedule decided a value explore() reports "
                      "unreachable");
      }
    }
    // Thread-count identity, and the reference search.
    for (const bool reduced : {false, true}) {
      const std::optional<ExploreResult>& many = reduced ? reduced_ : full_;
      if (!many) {
        continue;
      }
      const ExploreResult one =
          randsync::explore(*protocol_, inputs_, options(reduced, 1));
      if (!(*many == one)) {
        out.push_back(std::string("explore differs between 1 and ") +
                      std::to_string(args_.threads) + " workers (" +
                      (reduced ? "reduced" : "full") + " leg)");
      }
    }
    if (full_) {
      append(out, check_against_reference(
                      *full_, reference_bfs(*protocol_, inputs_,
                                            kInstanceSeed, kDepth)));
    }
    return out;
  }

  [[nodiscard]] Counts counts() const override {
    Counts out;
    if (full_) {
      out.emplace_back("explore.full.states", full_->states);
      out.emplace_back("explore.full.transitions", full_->transitions);
    }
    if (reduced_) {
      out.emplace_back("explore.reduced.states", reduced_->states);
      out.emplace_back("explore.reduced.transitions", reduced_->transitions);
    }
    if (capped_) {
      out.emplace_back("store.states", capped_->states);
      out.emplace_back("store.transitions", capped_->transitions);
      out.emplace_back("store.spilled_bytes", capped_->spilled_bytes);
    }
    return out;
  }

  void layers(Tracer& tracer, Values& out) override {
    out["explore.full.call_s"] = full_s_;
    out["explore.reduced.call_s"] = reduced_s_;
    if (full_ && reduced_) {
      out["explore.full.states"] = static_cast<double>(full_->states);
      out["explore.full.transitions"] = static_cast<double>(full_->transitions);
      out["explore.reduced.states"] = static_cast<double>(reduced_->states);
      out["explore.reduced.transitions"] =
          static_cast<double>(reduced_->transitions);
      out["explore.dedup_ratio"] = static_cast<double>(full_->dedup_hits) /
                                   static_cast<double>(full_->transitions);
      out["explore.orbit_merges"] = static_cast<double>(reduced_->orbit_merges);
      out["explore.seen_bytes"] = static_cast<double>(full_->seen_bytes);
      out["explore.total_bytes"] = static_cast<double>(full_->total_bytes);
      out["state_set.bytes_per_state"] =
          static_cast<double>(full_->seen_bytes) /
          static_cast<double>(full_->states);
    }
    double serial_s = 0;
    std::optional<ExploreResult> serial;
    {
      const Scope span(&tracer, "explore.full.1-worker", "verify");
      const std::int64_t start = now_ns();
      serial = attempt<ExploreResult>(failed_, "explore.full.1-worker", [&] {
        return randsync::explore(*protocol_, inputs_, options(false, 1));
      });
      serial_s = seconds_since(start);
    }
    note_repeat(full_, serial, "explore.full at 1 worker", run_findings_);
    out["explore.thread_speedup"] = serial_s / full_s_;

    const Walks walks = random_walks(*protocol_, inputs_, kInstanceSeed,
                                     args_.seed, kProbeSteps);
    const randsync::SymmetrySpec spec = protocol_->symmetry(inputs_.size());
    probe_simulation(tracer, walks, out);
    probe_explorer_layers(tracer, walks, &spec, out);
    store_layers(tracer, out);
  }

  [[nodiscard]] std::string outputs() const override {
    return (full_ ? render(*full_) : "-\n") +
           (reduced_ ? render(*reduced_) : "-\n");
  }

 private:
  static constexpr std::uint64_t kInstanceSeed = 1;
  static constexpr std::size_t kDepth = 64;
  static constexpr std::size_t kProbeSteps = 200'000;

  static void append(Findings& out, const Findings& more) {
    out.insert(out.end(), more.begin(), more.end());
  }

  [[nodiscard]] ExploreOptions options(bool reduced,
                                       std::size_t threads) const {
    ExploreOptions opt;
    opt.max_depth = kDepth;
    opt.seed = kInstanceSeed;
    opt.reduction = reduced;
    opt.symmetry = reduced;
    opt.threads = threads == 0 ? args_.threads : threads;
    return opt;
  }

  std::optional<ExploreResult> leg(Tracer* tracer, const std::string& name,
                                   bool reduced, double& seconds) {
    const Scope span(tracer, name, "verify");
    const std::int64_t start = now_ns();
    auto result = attempt<ExploreResult>(failed_, name, [&] {
      return randsync::explore(*protocol_, inputs_, options(reduced, 0));
    });
    seconds = seconds_since(start);
    return result;
  }

  /// The tiered store: counter-walk explored to a fixed depth under a
  /// memory budget with a spill directory, against the same run
  /// unbudgeted; plus SpillFile and delta-replay probes.
  void store_layers(Tracer& tracer, Values& out) {
    const auto walk = make_protocol("counter-walk", std::nullopt);
    ExploreOptions opt;
    opt.max_depth = store_depth_;
    opt.threads = args_.threads;
    std::optional<ExploreResult> uncapped;
    {
      const Scope span(&tracer, "explore.uncapped", "verify");
      const std::int64_t start = now_ns();
      uncapped = attempt<ExploreResult>(failed_, "explore.uncapped", [&] {
        return randsync::explore(*walk, store_inputs_, opt);
      });
      out["store.uncapped.call_s"] = seconds_since(start);
    }
    opt.max_resident_bytes = store_budget_;
    opt.spill_dir = spill_dir_;
    {
      const Scope span(&tracer, "explore.capped", "verify");
      const std::int64_t start = now_ns();
      capped_ = attempt<ExploreResult>(failed_, "explore.capped", [&] {
        return randsync::explore(*walk, store_inputs_, opt);
      });
      out["store.capped.call_s"] = seconds_since(start);
    }
    out["store.cap_overhead"] =
        out["store.capped.call_s"] / out["store.uncapped.call_s"];
    if (capped_ && uncapped) {
      out["store.spilled_bytes"] = static_cast<double>(capped_->spilled_bytes);
      out["store.total_bytes"] = static_cast<double>(capped_->total_bytes);
      append(run_findings_, check_spill(*capped_, *uncapped, store_budget_));
    }
    const Walks walks =
        random_walks(*walk, store_inputs_, 1, args_.seed, kProbeSteps);
    probe_store(tracer, walks, spill_dir_, args_.seed, out);
  }

  /// Decisions met on seeded random schedules of the main instance.
  [[nodiscard]] std::set<randsync::Value> walk_decisions() const {
    std::set<randsync::Value> seen;
    randsync::SplitMixCoin coin(randsync::derive_seed(args_.seed, 0x3A1C));
    const randsync::Configuration initial =
        randsync::make_initial_configuration(*protocol_, inputs_,
                                             kInstanceSeed);
    for (int walk = 0; walk < 200; ++walk) {
      randsync::Configuration config = initial.clone();
      for (int step = 0; step < 10'000; ++step) {
        const std::vector<randsync::ProcessId> live = live_pids(config);
        if (live.empty()) {
          break;
        }
        const randsync::Step s = config.step(live[coin.below(live.size())]);
        if (s.decided) {
          seen.insert(*s.decided);
        }
      }
    }
    return seen;
  }

  Args args_;
  std::vector<int> inputs_;
  std::vector<int> warm_inputs_;
  std::vector<int> store_inputs_;
  std::size_t store_depth_;
  std::size_t store_budget_;
  std::string spill_dir_;
  std::shared_ptr<const ConsensusProtocol> protocol_;
  std::optional<ExploreResult> capped_;  ///< traced runs only
  std::optional<ExploreResult> full_;
  std::optional<ExploreResult> reduced_;
  std::optional<ExploreResult> first_full_;
  std::optional<ExploreResult> first_reduced_;
  double full_s_ = 0;
  double reduced_s_ = 0;
  int rounds_ = 0;
};

// ------------------------------------------------------------------- fuzz

struct PolicyPlan {
  PolicyKind kind;
  std::size_t trials;           ///< per round
  std::size_t identity_trials;  ///< 1-worker vs many-worker comparison
  std::size_t runner_trials;    ///< the benchmark's own trial runner
};

struct FuzzShape {
  std::size_t n;
  std::size_t max_steps;
  std::vector<PolicyPlan> plans;
  std::size_t probe_steps;
};

FuzzShape fuzz_shape(const std::string& workload, Scale scale) {
  const bool bench = scale == Scale::kBenchmark;
  if (workload == "fuzz-n4") {
    FuzzShape shape{4, 4096, {}, bench ? 200'000u : 20'000u};
    for (const PolicyKind kind : randsync::all_policy_kinds()) {
      shape.plans.push_back(bench ? PolicyPlan{kind, 200'000, 20'000, 4000}
                                  : PolicyPlan{kind, 2000, 500, 400});
    }
    return shape;
  }
  // Schedules at n=128 take ~33k steps on average; the cap is far
  // beyond any schedule's length, so every schedule decides.
  if (bench) {
    return {128,
            std::size_t{1} << 22,
            {{PolicyKind::kUniform, 384, 24, 32},
             {PolicyKind::kWriteCover, 48, 4, 16},
             {PolicyKind::kBursts, 1536, 96, 64}},
            200'000};
  }
  return {16,
          std::size_t{1} << 20,
          {{PolicyKind::kUniform, 64, 8, 32},
           {PolicyKind::kWriteCover, 16, 4, 16},
           {PolicyKind::kBursts, 64, 8, 32}},
          20'000};
}

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload(const Args& args, Scale scale)
      : args_(args), shape_(fuzz_shape(args.workload, scale)) {}

  void setup() override {
    protocol_ = make_protocol("faa-consensus", std::nullopt);
    inputs_ = randsync::alternating_inputs(shape_.n);
    if (!randsync::fuzz_rewind_exact(
            *protocol_, inputs_, options(shape_.plans.front().kind, 1, 0))) {
      throw std::logic_error("faa-consensus no longer rewinds exactly");
    }
    // Warm-up: a thirty-second of each job, on a fixed seed so that
    // set-up does the same work whatever the run's seed.
    for (const PolicyPlan& plan : shape_.plans) {
      FuzzOptions warm = options(plan.kind, std::max<std::size_t>(1, plan.trials / 32), 0);
      warm.seed = 1;
      (void)randsync::fuzz(*protocol_, inputs_, warm);
    }
  }

  void round(Tracer* tracer) override {
    std::vector<std::optional<FuzzResult>> results;
    call_s_.clear();
    for (const PolicyPlan& plan : shape_.plans) {
      const std::string name = "fuzz." + randsync::to_string(plan.kind);
      const Scope span(tracer, name, "verify");
      const std::int64_t start = now_ns();
      results.push_back(attempt<FuzzResult>(failed_, name, [&] {
        return randsync::fuzz(*protocol_, inputs_,
                              options(plan.kind, plan.trials, 0));
      }));
      call_s_.push_back(seconds_since(start));
    }
    results_ = std::move(results);
  }

  void after_round() override {
    if (rounds_++ == 0) {
      first_ = results_;
    }
    for (std::size_t i = 0; i < results_.size(); ++i) {
      note_repeat(first_[i], results_[i],
                  "fuzz." + randsync::to_string(shape_.plans[i].kind),
                  run_findings_);
    }
  }

  [[nodiscard]] std::uint64_t jobs_per_round() const override {
    return shape_.plans.size();
  }

  [[nodiscard]] double work_per_round() const override {
    double schedules = 0;
    for (const auto& r : results_) {
      schedules += r ? static_cast<double>(r->schedules) : 0.0;
    }
    return schedules;
  }

  [[nodiscard]] Findings check() override {
    Findings out;
    for (std::size_t i = 0; i < shape_.plans.size(); ++i) {
      const PolicyPlan& plan = shape_.plans[i];
      const std::string label = "fuzz." + randsync::to_string(plan.kind);
      if (results_[i]) {
        const TrialStats runner = run_trials(
            *protocol_, inputs_, plan.kind,
            randsync::derive_seed(args_.seed, 0xD7), plan.runner_trials,
            shape_.max_steps);
        const Findings found =
            check_fuzz(*results_[i], plan.trials, runner, label);
        out.insert(out.end(), found.begin(), found.end());
      }
      const std::string many = json(plan.kind, plan.identity_trials, 0);
      const std::string one = json(plan.kind, plan.identity_trials, 1);
      if (many != one) {
        out.push_back(label + ": fuzz_result_json differs between 1 and " +
                      std::to_string(args_.threads) + " workers");
      }
    }
    return out;
  }

  [[nodiscard]] Counts counts() const override {
    Counts out;
    for (std::size_t i = 0; i < shape_.plans.size(); ++i) {
      if (results_[i]) {
        const std::string p = "fuzz." + randsync::to_string(shape_.plans[i].kind);
        out.emplace_back(p + ".schedules", results_[i]->schedules);
        out.emplace_back(p + ".total_steps", results_[i]->total_steps);
      }
    }
    return out;
  }

  void layers(Tracer& tracer, Values& out) override {
    double schedules = 0;
    double steps = 0;
    for (std::size_t i = 0; i < shape_.plans.size(); ++i) {
      out["fuzz." + randsync::to_string(shape_.plans[i].kind) + ".call_s"] =
          call_s_[i];
      if (results_[i]) {
        schedules += static_cast<double>(results_[i]->schedules);
        steps += static_cast<double>(results_[i]->total_steps);
      }
    }
    out["fuzz.schedules"] = schedules;
    out["fuzz.total_steps"] = steps;
    out["fuzz.steps_per_schedule"] = schedules > 0 ? steps / schedules : 0.0;

    const PolicyPlan& first = shape_.plans.front();
    {
      const Scope span(&tracer, "fuzz.1-worker", "verify");
      const std::int64_t start = now_ns();
      const auto serial = attempt<FuzzResult>(failed_, "fuzz.1-worker", [&] {
        return randsync::fuzz(*protocol_, inputs_,
                              options(first.kind, first.trials, 1));
      });
      out["fuzz.thread_speedup"] = seconds_since(start) / call_s_.front();
      note_repeat(results_.front(), serial, "fuzz at 1 worker",
                  run_findings_);
    }

    const randsync::Configuration initial =
        randsync::make_initial_configuration(*protocol_, inputs_, args_.seed);
    out["fuzz.rewind_ns"] = probe_rewind(tracer, initial, args_.seed);
    double pick_total = 0;
    double step_total = 0;
    for (const PolicyPlan& plan : shape_.plans) {
      const auto [pick, step] =
          probe_policy(tracer, initial, plan.kind, args_.seed,
                       shape_.probe_steps, shape_.max_steps);
      out["policy." + randsync::to_string(plan.kind) + ".next_ns"] = pick;
      pick_total += pick;
      step_total += step;
    }
    out["policy.pick_share"] = pick_total / (pick_total + step_total);
    const Walks walks = random_walks(*protocol_, inputs_, args_.seed,
                                     args_.seed, shape_.probe_steps);
    probe_simulation(tracer, walks, out);
  }

  [[nodiscard]] std::string outputs() const override {
    std::string s;
    for (std::size_t i = 0; i < shape_.plans.size(); ++i) {
      s += results_[i] ? randsync::fuzz_result_json(
                             *results_[i], "faa-consensus", shape_.n,
                             options(shape_.plans[i].kind,
                                     shape_.plans[i].trials, 0))
                       : "-";
      s += "\n";
    }
    return s;
  }

 private:
  [[nodiscard]] FuzzOptions options(PolicyKind kind, std::size_t trials,
                                    std::size_t threads) const {
    FuzzOptions opt;
    opt.trials = trials;
    opt.max_steps = shape_.max_steps;
    opt.seed = args_.seed;
    opt.policy = kind;
    opt.threads = threads == 0 ? args_.threads : threads;
    return opt;
  }

  [[nodiscard]] std::string json(PolicyKind kind, std::size_t trials,
                                 std::size_t threads) const {
    const FuzzOptions opt = options(kind, trials, threads);
    return randsync::fuzz_result_json(randsync::fuzz(*protocol_, inputs_, opt),
                                      "faa-consensus", shape_.n, opt);
  }

  Args args_;
  FuzzShape shape_;
  std::shared_ptr<const ConsensusProtocol> protocol_;
  std::vector<int> inputs_;
  std::vector<std::optional<FuzzResult>> results_;
  std::vector<std::optional<FuzzResult>> first_;
  std::vector<double> call_s_;
  int rounds_ = 0;
};

// ----------------------------------------------------------------- attack

struct GeneralJob {
  std::size_t r;
  std::shared_ptr<const ConsensusProtocol> protocol;
  std::optional<randsync::GeneralAttackResult> result;
  double call_s = 0;
};

struct CloneJob {
  std::string name;
  std::size_t r;
  std::uint64_t k;  ///< index of the adversary seed
  std::uint64_t seed;
  std::shared_ptr<const ConsensusProtocol> protocol;
  std::optional<randsync::AttackResult> result;
  double call_s = 0;
};

class AttackWorkload final : public Workload {
 public:
  AttackWorkload(const Args& args, Scale scale) : args_(args), scale_(scale) {}

  void setup() override {
    const bool bench = scale_ == Scale::kBenchmark;
    general_.clear();
    clone_.clear();
    for (const std::size_t r :
         bench ? kGeneralSweep : std::vector<std::size_t>{4, 8}) {
      general_.push_back({r, make_protocol("historyless-mixed", r), {}, 0});
    }
    // bidirectional-voting forces Figure 4's incomparable case.
    for (const char* name : {"round-voting", "bidirectional-voting"}) {
      for (const std::size_t r :
           bench ? std::vector<std::size_t>{4, 8, 16} : std::vector<std::size_t>{3, 4}) {
        for (std::uint64_t k = 0; k < (bench ? 3u : 2u); ++k) {
          clone_.push_back({name, r, k, randsync::derive_seed(args_.seed, k),
                            make_protocol(name, r), {}, 0});
        }
      }
    }
    // Warm-up on a fixed seed: the two smallest general attacks and one
    // clone attack.
    for (std::size_t i = 0; i < 2 && i < general_.size(); ++i) {
      (void)randsync::GeneralAdversary().attack(*general_[i].protocol);
    }
    (void)randsync::CloneAdversary().attack(*clone_.front().protocol);
  }

  void round(Tracer* tracer) override {
    for (GeneralJob& job : general_) {
      const std::string name = "attack.general.r" + std::to_string(job.r);
      job.result.reset();  // keep one execution per job resident
      const Scope span(tracer, name, "core");
      const std::int64_t start = now_ns();
      randsync::GeneralAdversary::Options opt;
      opt.seed = args_.seed;
      auto result = attempt<randsync::GeneralAttackResult>(failed_, name, [&] {
        return randsync::GeneralAdversary(opt).attack(*job.protocol);
      });
      job.call_s = seconds_since(start);
      if (result && !result->success) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s failed: %s\n", name.c_str(),
                     result->failure.c_str());
      }
      job.result = std::move(result);
    }
    for (CloneJob& job : clone_) {
      const std::string name = label(job);
      job.result.reset();
      const Scope span(tracer, name, "core");
      const std::int64_t start = now_ns();
      randsync::CloneAdversary::Options opt;
      opt.seed = job.seed;
      auto result = attempt<randsync::AttackResult>(failed_, name, [&] {
        return randsync::CloneAdversary(opt).attack(*job.protocol);
      });
      job.call_s = seconds_since(start);
      if (result && !result->success) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s failed: %s\n", name.c_str(),
                     result->failure.c_str());
      }
      job.result = std::move(result);
    }
  }

  void after_round() override {
    std::vector<std::uint64_t> digests;
    for (const GeneralJob& job : general_) {
      digests.push_back(job.result ? digest(job.result->execution) : 0);
    }
    for (const CloneJob& job : clone_) {
      digests.push_back(job.result ? digest(job.result->execution) : 0);
    }
    if (first_digests_.empty()) {
      first_digests_ = digests;
    }
    if (digests != first_digests_) {
      run_findings_.push_back(
          "attack: a repeated round gave a different execution");
    }
  }

  [[nodiscard]] std::uint64_t jobs_per_round() const override {
    return general_.size() + clone_.size();
  }

  [[nodiscard]] double work_per_round() const override {
    return static_cast<double>(jobs_per_round());
  }

  [[nodiscard]] Findings check() override {
    Findings out;
    for (const GeneralJob& job : general_) {
      if (job.result && job.result->success) {
        const auto space = job.protocol->make_space(2);
        const Findings found = check_attack_execution(
            job.result->execution, *space, job.result->processes_used,
            randsync::general_adversary_processes(space->size()),
            "attack.general.r" + std::to_string(job.r));
        out.insert(out.end(), found.begin(), found.end());
      }
    }
    for (const CloneJob& job : clone_) {
      if (job.result && job.result->success) {
        const auto space = job.protocol->make_space(2);
        const Findings found = check_attack_execution(
            job.result->execution, *space, job.result->processes_used,
            randsync::clone_adversary_processes(space->size()), label(job));
        out.insert(out.end(), found.begin(), found.end());
      }
    }
    return out;
  }

  [[nodiscard]] Counts counts() const override {
    Counts out;
    for (const GeneralJob& job : general_) {
      if (job.result) {
        const std::string p = "attack.general.r" + std::to_string(job.r);
        out.emplace_back(p + ".execution_steps", job.result->execution.size());
        out.emplace_back(p + ".processes_used", job.result->processes_used);
      }
    }
    for (const CloneJob& job : clone_) {
      if (job.result) {
        out.emplace_back(label(job) + ".execution_steps",
                         job.result->execution.size());
      }
    }
    return out;
  }

  void layers(Tracer& tracer, Values& out) override {
    double clone_ms = 0;
    double clones = 0;
    double clone_steps = 0;
    for (const CloneJob& job : clone_) {
      clone_ms += job.call_s * 1e3;
      if (job.result) {
        clones += static_cast<double>(job.result->clones_created);
        clone_steps += static_cast<double>(job.result->execution.size());
      }
    }
    out["attack.clone.call_ms"] = clone_ms;
    out["attack.clone.clones_created"] = clones;
    out["attack.clone.execution_steps"] = clone_steps;
    for (const GeneralJob& job : general_) {
      out["attack.general.r" + std::to_string(job.r) + ".call_ms"] =
          job.call_s * 1e3;
    }
    const GeneralJob& largest = general_.back();
    if (largest.result) {
      out["attack.general.processes_used"] =
          static_cast<double>(largest.result->processes_used);
      out["attack.general.pieces"] =
          static_cast<double>(largest.result->pieces_executed);
      out["attack.general.rebuilds"] =
          static_cast<double>(largest.result->rebuilds);
      out["attack.general.execution_steps"] =
          static_cast<double>(largest.result->execution.size());
    }

    // Large configurations: the general adversary's pool at the largest r.
    const std::size_t r = largest.protocol->make_space(2)->size();
    const std::vector<int> pool_inputs = randsync::alternating_inputs(
        randsync::general_adversary_processes(r));
    const randsync::Configuration pool = randsync::make_initial_configuration(
        *largest.protocol, pool_inputs, args_.seed);
    std::vector<double> clone_us;
    for (int i = 0; i < 5; ++i) {
      const Scope span(&tracer, "probe.clone_large", "runtime");
      const std::int64_t start = now_ns();
      const randsync::Configuration copy = pool.clone();
      clone_us.push_back(seconds_since(start) * 1e6);
    }
    out["runtime.clone_large_us"] = median(clone_us);
    std::vector<double> solo_us;
    for (randsync::ProcessId pid = 0; pid < 5; ++pid) {
      randsync::Configuration copy = pool.clone();
      const Scope span(&tracer, "probe.solo_terminate", "runtime");
      const std::int64_t start = now_ns();
      (void)randsync::solo_terminate(copy, pid, 200'000, 16,
                                     randsync::derive_seed(args_.seed, pid));
      solo_us.push_back(seconds_since(start) * 1e6);
    }
    out["runtime.solo_terminate_us"] = median(solo_us);

    const Walks walks =
        random_walks(*largest.protocol, randsync::alternating_inputs(64),
                     args_.seed, args_.seed, kProbeSteps);
    probe_simulation(tracer, walks, out);
  }

  [[nodiscard]] std::string outputs() const override {
    std::string s;
    for (const GeneralJob& job : general_) {
      s += job.result ? render(job.result->execution) : "-\n";
    }
    for (const CloneJob& job : clone_) {
      s += job.result ? render(job.result->execution) : "-\n";
    }
    return s;
  }

 private:
  static constexpr std::size_t kProbeSteps = 200'000;

  static std::string label(const CloneJob& job) {
    return "attack.clone." + job.name + ".r" + std::to_string(job.r) + ".s" +
           std::to_string(job.k);
  }

  /// FNV-1a over every field of every step.
  static std::uint64_t digest(const randsync::Trace& trace) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x100000001B3ULL;
    };
    for (const randsync::Step& step : trace.steps()) {
      mix(step.pid);
      mix(step.inv.object);
      mix(static_cast<std::uint64_t>(step.inv.op.kind));
      mix(static_cast<std::uint64_t>(step.inv.op.arg0));
      mix(static_cast<std::uint64_t>(step.inv.op.arg1));
      mix(static_cast<std::uint64_t>(step.response));
      mix(step.decided ? 2 + static_cast<std::uint64_t>(*step.decided) : 0);
    }
    return h;
  }

  Args args_;
  Scale scale_;
  std::vector<GeneralJob> general_;
  std::vector<CloneJob> clone_;
  std::vector<std::uint64_t> first_digests_;
};

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"work_per_s", "1/s"},
      {"cpu_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"explore.full.call_s", "s"},
        {"explore.reduced.call_s", "s"},
        {"explore.full.states", "count"},
        {"explore.full.transitions", "count"},
        {"explore.reduced.states", "count"},
        {"explore.reduced.transitions", "count"},
        {"explore.dedup_ratio", "ratio"},
        {"explore.orbit_merges", "count"},
        {"explore.seen_bytes", "bytes"},
        {"explore.total_bytes", "bytes"},
        {"explore.thread_speedup", "x"},
        {"runtime.step_ns", "ns"},
        {"objects.apply_ns", "ns"},
        {"protocols.poised_ns", "ns"},
        {"protocols.on_response_ns", "ns"},
        {"runtime.fingerprint_ns", "ns"},
        {"state_set.claim_ns", "ns"},
        {"state_set.bytes_per_state", "bytes"},
        {"symmetry.canonical_fp_ns", "ns"},
        {"por.persistent_set_ns", "ns"},
        {"runtime.clone_into_ns", "ns"},
        {"store.capped.call_s", "s"},
        {"store.uncapped.call_s", "s"},
        {"store.cap_overhead", "x"},
        {"store.spilled_bytes", "bytes"},
        {"store.total_bytes", "bytes"},
        {"store.spill_append_mib_per_s", "MiB/s"},
        {"store.spill_read_mib_per_s", "MiB/s"},
        {"store.rebuild_ns_per_step", "ns"},
    };
    for (const PolicyKind kind : randsync::all_policy_kinds()) {
      s.push_back({"fuzz." + randsync::to_string(kind) + ".call_s", "s"});
    }
    s.push_back({"fuzz.schedules", "count"});
    s.push_back({"fuzz.total_steps", "count"});
    s.push_back({"fuzz.steps_per_schedule", "count"});
    s.push_back({"fuzz.thread_speedup", "x"});
    s.push_back({"fuzz.rewind_ns", "ns"});
    for (const PolicyKind kind : randsync::all_policy_kinds()) {
      s.push_back({"policy." + randsync::to_string(kind) + ".next_ns", "ns"});
    }
    s.push_back({"policy.pick_share", "ratio"});
    s.push_back({"runtime.all_decided_ns", "ns"});
    for (const std::size_t r : kGeneralSweep) {
      s.push_back({"attack.general.r" + std::to_string(r) + ".call_ms", "ms"});
    }
    s.push_back({"attack.clone.call_ms", "ms"});
    s.push_back({"attack.general.processes_used", "count"});
    s.push_back({"attack.general.pieces", "count"});
    s.push_back({"attack.general.rebuilds", "count"});
    s.push_back({"attack.general.execution_steps", "count"});
    s.push_back({"attack.clone.clones_created", "count"});
    s.push_back({"attack.clone.execution_steps", "count"});
    s.push_back({"runtime.solo_terminate_us", "us"});
    s.push_back({"runtime.clone_large_us", "us"});
    for (const char* layer :
         {"runtime", "objects", "protocols", "core", "verify"}) {
      s.push_back({std::string("layer.") + layer + ".self_s", "s"});
    }
    s.push_back({"trace.overhead", "ratio"});
    return s;
  }();
  return specs;
}

std::unique_ptr<Workload> make_workload(const Args& args, Scale scale) {
  if (args.workload == "explore") {
    return std::make_unique<ExploreWorkload>(args, scale);
  }
  if (args.workload == "fuzz-n4" || args.workload == "fuzz-n128") {
    return std::make_unique<FuzzWorkload>(args, scale);
  }
  if (args.workload == "attack") {
    return std::make_unique<AttackWorkload>(args, scale);
  }
  throw std::invalid_argument("unknown workload " + args.workload);
}

RunReport run_benchmark(const Args& args, Scale scale) {
  RunReport report;
  // Set up several times and report the median; the first set-up is
  // timed from process start.
  constexpr int kSetups = 5;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const std::int64_t start = i == 0 ? g_process_start_ns : now_ns();
    workload = make_workload(args, scale);
    workload->setup();
    report.setup_s.push_back(seconds_since(start));
  }

  Values& m = report.metrics;
  if (!args.trace) {
    std::vector<double> cpu;
    double elapsed = 0;
    // Whole rounds only: start another only if it should end in time.
    while (report.round_s.empty() ||
           elapsed + report.round_s.back() <= static_cast<double>(args.seconds)) {
      const double cpu_start = cpu_seconds();
      const std::int64_t start = now_ns();
      workload->round(nullptr);
      report.round_s.push_back(seconds_since(start));
      cpu.push_back(cpu_seconds() - cpu_start);
      elapsed += report.round_s.back();
      workload->after_round();
    }
    m["setup_s"] = median(report.setup_s);
    m["wall_s"] = median(report.round_s);
    m["work_per_s"] = workload->work_per_round() / m["wall_s"];
    m["cpu_s"] = median(cpu);
    m["peak_rss_mib"] = peak_rss_mib();
  } else {
    std::int64_t start = now_ns();
    workload->round(nullptr);
    report.round_s.push_back(seconds_since(start));
    workload->after_round();
    Tracer tracer(args.seed);
    {
      const Scope span(&tracer, "round", "bench");
      start = now_ns();
      workload->round(&tracer);
      report.round_s.push_back(seconds_since(start));
    }
    workload->after_round();
    workload->layers(tracer, m);
    const auto self = tracer.self_seconds();
    for (const char* layer :
         {"runtime", "objects", "protocols", "core", "verify"}) {
      const auto it = self.find(layer);
      m[std::string("layer.") + layer + ".self_s"] =
          it == self.end() ? 0.0 : it->second;
    }
    m["trace.overhead"] = report.round_s[1] / report.round_s[0] - 1.0;
    report.spans_jsonl = tracer.to_jsonl();
  }

  report.attempted = workload->jobs_per_round() * report.round_s.size();
  report.failed = workload->failed();
  report.findings = workload->check();
  const Findings& repeats = workload->run_findings();
  report.findings.insert(report.findings.end(), repeats.begin(), repeats.end());
  report.correct = report.findings.empty();
  report.counts = workload->counts();
  return report;
}

}  // namespace perfbench
