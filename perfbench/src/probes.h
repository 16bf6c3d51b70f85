// Layer probes for the traced run: they drive one instance's states
// through each layer's public functions, in batches (most calls are
// shorter than the clock's resolution), each batch inside a span.
// Every figure is the median of five batches.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "protocols/protocol.h"
#include "runtime/configuration.h"
#include "spans.h"
#include "verify/adversary_policies.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// The processes of `config` that have not decided, in pid order.
[[nodiscard]] std::vector<randsync::ProcessId> live_pids(
    const randsync::Configuration& config);

/// Seeded random walks over one instance, and what they passed through.
struct Walks {
  explicit Walks(randsync::Configuration start) : initial(std::move(start)) {}

  randsync::Configuration initial;
  std::vector<std::vector<randsync::ProcessId>> schedules;  ///< from initial
  std::size_t steps = 0;
  std::vector<randsync::Configuration> samples;  ///< each has a live process
  struct Apply {
    const randsync::ObjectType* type = nullptr;
    randsync::Op op;
    randsync::Value value = 0;
  };
  std::vector<Apply> applies;  ///< object operations with their pre-values
  struct Response {
    randsync::ProcessPtr process;  ///< a process just before a response
    randsync::Value response = 0;
  };
  std::vector<Response> responses;
  std::vector<randsync::StateFingerprint> fingerprints;
};

/// Walk `protocol` from its initial configuration under process seed
/// `instance_seed`, choosing each next process uniformly with a coin
/// seeded by `walk_seed`, until about `target_steps` steps are taken.
[[nodiscard]] Walks random_walks(const randsync::ConsensusProtocol& protocol,
                                 std::span<const int> inputs,
                                 std::uint64_t instance_seed,
                                 std::uint64_t walk_seed,
                                 std::size_t target_steps);

/// Per-call nanoseconds of Configuration::step, ObjectType::apply,
/// Process::poised / on_response, clone_into and all_decided:
/// runtime.step_ns, objects.apply_ns, protocols.poised_ns,
/// protocols.on_response_ns, runtime.clone_into_ns,
/// runtime.all_decided_ns.
void probe_simulation(Tracer& tracer, const Walks& walks, Values& out);

/// The explorer's per-state layers: runtime.fingerprint_ns
/// (state_fingerprint after a step, net of the step), state_set.claim_ns
/// and, when `spec` is given, symmetry.canonical_fp_ns and
/// por.persistent_set_ns.
void probe_explorer_layers(Tracer& tracer, const Walks& walks,
                           const randsync::SymmetrySpec* spec, Values& out);

/// The tiered store: SpillFile append/read throughput in `dir`
/// (store.spill_append_mib_per_s, store.spill_read_mib_per_s) and
/// delta-replay rebuilds (store.rebuild_ns_per_step).
void probe_store(Tracer& tracer, const Walks& walks, const std::string& dir,
                 std::uint64_t seed, Values& out);

/// Pick cost of one policy: drives trials from `walks.initial` until
/// about `target_steps` steps, timing next()+step, then replays the
/// same pids with step alone.  Returns {pick ns, step ns} per step.
[[nodiscard]] std::pair<double, double> probe_policy(
    Tracer& tracer, const randsync::Configuration& initial,
    randsync::PolicyKind kind, std::uint64_t seed, std::size_t target_steps,
    std::size_t max_steps);

/// The fuzzer's per-trial rewind: clone_into from the snapshot plus a
/// reseed of every process (fuzz.rewind_ns).
[[nodiscard]] double probe_rewind(Tracer& tracer,
                                  const randsync::Configuration& initial,
                                  std::uint64_t seed);

}  // namespace perfbench
