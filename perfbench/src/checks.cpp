#include "checks.h"

#include <cmath>
#include <set>
#include <unordered_set>

#include "protocols/harness.h"
#include "runtime/coin.h"
#include "runtime/configuration.h"

namespace perfbench {

using randsync::Configuration;
using randsync::ExploreResult;
using randsync::ProcessId;
using randsync::StateFingerprint;

namespace {

struct FingerprintHash {
  std::size_t operator()(const StateFingerprint& fp) const {
    return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9E3779B97F4A7C15ULL));
  }
};

void note_decisions(const Configuration& config, ReferenceSearch& out) {
  for (ProcessId pid = 0; pid < config.num_processes(); ++pid) {
    if (config.decided(pid)) {
      (config.process(pid).decision() == 0 ? out.zero_reachable
                                           : out.one_reachable) = true;
    }
  }
}

std::string field(const std::string& name, std::uint64_t got,
                  std::uint64_t want) {
  return name + " " + std::to_string(got) + " != " + std::to_string(want);
}

}  // namespace

ReferenceSearch reference_bfs(const randsync::ConsensusProtocol& protocol,
                              std::span<const int> inputs, std::uint64_t seed,
                              std::size_t max_depth) {
  ReferenceSearch out;
  std::unordered_set<StateFingerprint, FingerprintHash> seen;
  std::vector<Configuration> level;
  level.push_back(randsync::make_initial_configuration(protocol, inputs, seed));
  seen.insert(level.back().state_fingerprint());
  out.states = 1;
  note_decisions(level.back(), out);
  for (std::size_t depth = 0; depth < max_depth && !level.empty(); ++depth) {
    std::vector<Configuration> next;
    for (const Configuration& config : level) {
      for (ProcessId pid = 0; pid < config.num_processes(); ++pid) {
        if (config.decided(pid)) {
          continue;
        }
        Configuration child = config.clone();
        (void)child.step(pid);
        ++out.transitions;
        if (seen.insert(child.state_fingerprint()).second) {
          ++out.states;
          note_decisions(child, out);
          next.push_back(std::move(child));
        }
      }
    }
    level = std::move(next);
  }
  return out;
}

Findings check_against_reference(const ExploreResult& full,
                                 const ReferenceSearch& reference) {
  Findings out;
  if (full.states != reference.states) {
    out.push_back("explore states vs reference search: " +
                  field("states", full.states, reference.states));
  }
  if (full.transitions != reference.transitions) {
    out.push_back("explore transitions vs reference search: " +
                  field("transitions", full.transitions,
                        reference.transitions));
  }
  if (full.zero_reachable != reference.zero_reachable ||
      full.one_reachable != reference.one_reachable) {
    out.push_back("explore reachable decisions differ from the reference "
                  "search");
  }
  return out;
}

Findings check_explore_legs(const ExploreResult& full,
                            const ExploreResult& reduced,
                            std::span<const int> inputs) {
  Findings out;
  if (!full.safe || !reduced.safe) {
    out.push_back("explore reports a violation on a safe instance");
  }
  if (!full.complete || !reduced.complete || full.truncated ||
      reduced.truncated) {
    out.push_back("explore did not complete its instance");
  }
  if (full.zero_reachable != reduced.zero_reachable ||
      full.one_reachable != reduced.one_reachable) {
    out.push_back("reduced leg reaches other decisions than the full leg");
  }
  if (reduced.states > full.states) {
    out.push_back("reduced leg has more states than the full leg: " +
                  field("states", reduced.states, full.states));
  }
  bool has_zero = false;
  bool has_one = false;
  for (const int input : inputs) {
    (input == 0 ? has_zero : has_one) = true;
  }
  // Validity: only proposed values are decided; with all-equal inputs
  // that value is the one reachable decision.
  if ((full.zero_reachable && !has_zero) || (full.one_reachable && !has_one) ||
      (!full.zero_reachable && !full.one_reachable)) {
    out.push_back("reachable decisions do not match the inputs");
  }
  return out;
}

Findings check_spill(const ExploreResult& capped,
                     const ExploreResult& uncapped, std::size_t budget_bytes) {
  Findings out;
  ExploreResult normalized = capped;
  normalized.total_bytes = uncapped.total_bytes;
  normalized.spilled_bytes = uncapped.spilled_bytes;
  if (!(normalized == uncapped)) {
    out.push_back("budgeted run differs from the unbudgeted run: " +
                  field("states", capped.states, uncapped.states) + ", " +
                  field("transitions", capped.transitions,
                        uncapped.transitions));
  }
  if (capped.truncated) {
    out.push_back("budgeted run truncated: " + capped.truncated_reason);
  }
  if (capped.spilled_bytes == 0) {
    out.push_back("budgeted run spilled nothing");
  }
  if (capped.total_bytes > budget_bytes) {
    out.push_back("budgeted run's resident peak exceeds the budget: " +
                  field("total_bytes", capped.total_bytes, budget_bytes));
  }
  return out;
}

TrialStats run_trials(const randsync::ConsensusProtocol& protocol,
                        std::span<const int> inputs, randsync::PolicyKind kind,
                        std::uint64_t seed, std::size_t trials,
                        std::size_t max_steps) {
  TrialStats stats;
  const auto policy = randsync::make_policy(kind);
  double sum = 0;
  double sum_sq = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t trial_seed = randsync::trial_seed(seed, t, 0xD21E);
    Configuration config =
        randsync::make_initial_configuration(protocol, inputs, trial_seed);
    randsync::SplitMixCoin coin(randsync::derive_seed(trial_seed, 0xC0));
    policy->reset(config, coin);
    std::size_t steps = 0;
    while (steps < max_steps) {
      const auto pid = policy->next(config, coin);
      if (!pid) {
        break;
      }
      (void)config.step(*pid);
      ++steps;
    }
    std::set<randsync::Value> decisions;
    bool all = true;
    for (ProcessId pid = 0; pid < config.num_processes(); ++pid) {
      if (!config.decided(pid)) {
        all = false;
        continue;
      }
      const randsync::Value v = config.process(pid).decision();
      decisions.insert(v);
      bool proposed = false;
      for (const int input : inputs) {
        proposed = proposed || input == v;
      }
      stats.invalid += proposed ? 0 : 1;
    }
    stats.decided += all ? 1 : 0;
    stats.disagreements += decisions.size() > 1 ? 1 : 0;
    ++stats.trials;
    sum += static_cast<double>(steps);
    sum_sq += static_cast<double>(steps) * static_cast<double>(steps);
  }
  if (stats.trials > 0) {
    const double n = static_cast<double>(stats.trials);
    stats.mean_steps = sum / n;
    stats.sd_steps =
        n > 1 ? std::sqrt(std::max(0.0, (sum_sq - sum * sum / n) / (n - 1)))
              : 0.0;
  }
  return stats;
}

Findings check_fuzz(const randsync::FuzzResult& result, std::size_t trials,
                    const TrialStats& reference, const std::string& label) {
  Findings out;
  if (result.violations != 0) {
    out.push_back(label + ": fuzz found " +
                  std::to_string(result.violations) + " violations");
  }
  if (result.schedules != trials || result.decided != result.schedules ||
      result.undecided != 0) {
    out.push_back(label + ": not every schedule decided (" +
                  std::to_string(result.decided) + " of " +
                  std::to_string(result.schedules) + ")");
  }
  if (reference.disagreements != 0 || reference.invalid != 0 ||
      reference.decided != reference.trials) {
    out.push_back(label + ": trial runner saw disagreement, an invalid "
                          "decision or an undecided schedule");
  }
  if (result.schedules > 0 && reference.trials > 1) {
    const double mean = static_cast<double>(result.total_steps) /
                        static_cast<double>(result.schedules);
    const double se =
        reference.sd_steps *
        std::sqrt(1.0 / static_cast<double>(reference.trials) +
                  1.0 / static_cast<double>(result.schedules));
    if (std::fabs(mean - reference.mean_steps) > 8 * se + 1e-9) {
      out.push_back(label + ": mean steps per schedule " +
                    std::to_string(mean) + " vs trial runner " +
                    std::to_string(reference.mean_steps) +
                    " (more than 8 standard errors apart)");
    }
  }
  return out;
}

Findings check_attack_execution(const randsync::Trace& execution,
                                const randsync::ObjectSpace& space,
                                std::size_t processes_used,
                                std::size_t process_bound,
                                const std::string& label) {
  Findings out;
  std::vector<randsync::Value> values = space.initial_values();
  std::set<ProcessId> stepped;
  bool zero = false;
  bool one = false;
  for (std::size_t i = 0; i < execution.size(); ++i) {
    const randsync::Step& step = execution[i];
    stepped.insert(step.pid);
    if (step.decided) {
      (*step.decided == 0 ? zero : one) = true;
    }
    const randsync::ObjectId obj = step.inv.object;
    if (obj == randsync::kNoObject) {
      continue;
    }
    if (obj >= values.size()) {
      out.push_back(label + ": step " + std::to_string(i) +
                    " names an object outside the space");
      return out;
    }
    const randsync::Value response = space.type(obj).apply(step.inv.op,
                                                           values[obj]);
    if (response != step.response) {
      out.push_back(label + ": step " + std::to_string(i) + " responded " +
                    std::to_string(step.response) + ", replay gives " +
                    std::to_string(response));
      return out;
    }
  }
  if (!zero || !one) {
    out.push_back(label + ": execution does not decide both 0 and 1");
  }
  if (stepped.size() != processes_used) {
    out.push_back(label + ": " + field("processes stepping", stepped.size(),
                                       processes_used));
  }
  if (processes_used > process_bound) {
    out.push_back(label + ": " + std::to_string(processes_used) +
                  " processes exceed the bound " +
                  std::to_string(process_bound));
  }
  return out;
}

}  // namespace perfbench
