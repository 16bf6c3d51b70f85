// Output checks that are computed apart from the code they check: a
// reference breadth-first search over the public Configuration API, a
// schedule-trial runner of the benchmark's own, and a step-by-step
// replay of adversary executions against fresh object values.  Each
// check returns its findings as one-line messages; an empty list means
// the output passed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocols/protocol.h"
#include "runtime/trace.h"
#include "verify/adversary_policies.h"
#include "verify/explorer.h"
#include "verify/fuzz.h"

namespace perfbench {

using Findings = std::vector<std::string>;

/// What a plain breadth-first search finds: every configuration within
/// `max_depth` steps of the initial one, deduplicated by the full
/// 128-bit fingerprint.
struct ReferenceSearch {
  std::size_t states = 0;
  std::size_t transitions = 0;
  bool zero_reachable = false;
  bool one_reachable = false;
};

[[nodiscard]] ReferenceSearch reference_bfs(
    const randsync::ConsensusProtocol& protocol, std::span<const int> inputs,
    std::uint64_t seed, std::size_t max_depth);

/// explore()'s full-mode result against the reference search.
[[nodiscard]] Findings check_against_reference(
    const randsync::ExploreResult& full, const ReferenceSearch& reference);

/// The full and the reduced leg of one instance: both safe and
/// complete, the same reachable decisions, the reduced leg no larger;
/// only proposed values are decided (so with all-zero inputs only 0).
[[nodiscard]] Findings check_explore_legs(
    const randsync::ExploreResult& full, const randsync::ExploreResult& reduced,
    std::span<const int> inputs);

/// A budgeted, spilling run against an unbudgeted one: equal in every
/// field but the memory accounting, not truncated, something spilled,
/// and the resident peak within the budget.
[[nodiscard]] Findings check_spill(const randsync::ExploreResult& capped,
                                   const randsync::ExploreResult& uncapped,
                                   std::size_t budget_bytes);

/// Statistics of the benchmark's own schedule trials.
struct TrialStats {
  std::uint64_t trials = 0;
  std::uint64_t decided = 0;        ///< trials in which everyone decided
  std::uint64_t disagreements = 0;  ///< two different decisions
  std::uint64_t invalid = 0;        ///< a decision nobody proposed
  double mean_steps = 0;
  double sd_steps = 0;
};

/// Run `trials` schedules of `kind` from fresh initial configurations,
/// with seeds drawn from `seed` (independent of fuzz()'s seeding), each
/// until every process decides or `max_steps` steps; agreement and
/// validity are checked here, not by the library.
[[nodiscard]] TrialStats run_trials(
    const randsync::ConsensusProtocol& protocol, std::span<const int> inputs,
    randsync::PolicyKind kind, std::uint64_t seed, std::size_t trials,
    std::size_t max_steps);

/// A fuzz() campaign result: no violations, every schedule decided; and
/// its mean steps per schedule within 8 standard errors of the trial
/// runner's, which ran the same policy on the same instance.
[[nodiscard]] Findings check_fuzz(const randsync::FuzzResult& result,
                                  std::size_t trials,
                                  const TrialStats& reference,
                                  const std::string& label);

/// An adversary's execution: replayed step by step against fresh
/// object values every response must match; it must hold a decision of
/// 0 and one of 1; the processes that step must number exactly
/// `processes_used`, which must not exceed `process_bound`.
[[nodiscard]] Findings check_attack_execution(
    const randsync::Trace& execution, const randsync::ObjectSpace& space,
    std::size_t processes_used, std::size_t process_bound,
    const std::string& label);

}  // namespace perfbench
