#include "probes.h"

#include <algorithm>
#include <filesystem>

#include "protocols/harness.h"
#include "runtime/coin.h"
#include "verify/por.h"
#include "verify/state_set.h"
#include "verify/store.h"
#include "verify/symmetry.h"

namespace perfbench {

using randsync::Configuration;
using randsync::ProcessId;

namespace {

// Keeps probe results observable so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;
constexpr std::size_t kMaxSamples = 512;
constexpr std::size_t kMaxWalkSteps = 20'000;

/// Runs `body` (which returns the nanoseconds it wants counted) in
/// kBatches spans named `name`; returns the median per-call ns.
template <typename Body>
double batched_ns(Tracer& tracer, const std::string& name,
                  const std::string& layer, std::uint64_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Scope span(&tracer, name, layer, calls);
    const double ns = static_cast<double>(body());
    per_call.push_back(ns / static_cast<double>(std::max<std::uint64_t>(calls, 1)));
  }
  return median(per_call);
}

/// Times a whole batch of calls made by `fn`.
template <typename Fn>
std::int64_t timed(Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  return now_ns() - start;
}

/// Replays every walk schedule from the initial configuration, timing
/// only the replays; `per_step` runs after each step (inside the timing).
template <typename PerStep>
std::int64_t replay_walks(const Walks& walks, Configuration& scratch,
                          PerStep&& per_step) {
  std::int64_t total = 0;
  for (const auto& schedule : walks.schedules) {
    walks.initial.clone_into(scratch);
    total += timed([&] {
      for (const ProcessId pid : schedule) {
        (void)scratch.step(pid);
        per_step(scratch);
      }
    });
  }
  return total;
}

}  // namespace

std::vector<ProcessId> live_pids(const Configuration& config) {
  std::vector<ProcessId> live;
  for (ProcessId pid = 0; pid < config.num_processes(); ++pid) {
    if (!config.decided(pid)) {
      live.push_back(pid);
    }
  }
  return live;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

Walks random_walks(const randsync::ConsensusProtocol& protocol,
                   std::span<const int> inputs, std::uint64_t instance_seed,
                   std::uint64_t walk_seed, std::size_t target_steps) {
  Walks walks(
      randsync::make_initial_configuration(protocol, inputs, instance_seed));
  randsync::SplitMixCoin coin(walk_seed);
  const std::size_t stride =
      std::max<std::size_t>(1, target_steps / kMaxSamples);
  while (walks.steps < target_steps) {
    Configuration config = walks.initial.clone();
    std::vector<ProcessId> schedule;
    while (schedule.size() < kMaxWalkSteps && walks.steps < target_steps) {
      const std::vector<ProcessId> live = live_pids(config);
      if (live.empty()) {
        break;
      }
      const ProcessId pid = live[coin.below(live.size())];
      const bool sample =
          walks.steps % stride == 0 && walks.samples.size() < kMaxSamples;
      if (sample) {
        walks.samples.push_back(config.clone());
        walks.responses.push_back({config.process(pid).clone(), 0});
      }
      const randsync::Invocation inv = config.process(pid).poised();
      if (inv.object != randsync::kNoObject) {
        walks.applies.push_back(
            {&config.space().type(inv.object), inv.op, config.value(inv.object)});
      }
      const randsync::Step step = config.step(pid);
      if (sample) {
        walks.responses.back().response = step.response;
      }
      walks.fingerprints.push_back(config.state_fingerprint());
      schedule.push_back(pid);
      ++walks.steps;
    }
    walks.schedules.push_back(std::move(schedule));
  }
  return walks;
}

void probe_simulation(Tracer& tracer, const Walks& walks, Values& out) {
  Configuration scratch = walks.initial.clone();
  out["runtime.step_ns"] =
      batched_ns(tracer, "probe.step", "runtime", walks.steps, [&] {
        return replay_walks(walks, scratch, [](const Configuration&) {});
      });

  out["objects.apply_ns"] = batched_ns(
      tracer, "probe.apply", "objects", walks.applies.size(), [&] {
        return timed([&] {
          std::uint64_t sink = 0;
          for (const Walks::Apply& a : walks.applies) {
            randsync::Value value = a.value;
            sink += static_cast<std::uint64_t>(a.type->apply(a.op, value));
          }
          g_sink = g_sink + sink;
        });
      });

  std::vector<std::pair<const Configuration*, ProcessId>> poised;
  for (const Configuration& sample : walks.samples) {
    for (const ProcessId pid : live_pids(sample)) {
      poised.emplace_back(&sample, pid);
    }
  }
  out["protocols.poised_ns"] =
      batched_ns(tracer, "probe.poised", "protocols", poised.size(), [&] {
        return timed([&] {
          std::uint64_t sink = 0;
          for (const auto& [config, pid] : poised) {
            sink += config->process(pid).poised().object;
          }
          g_sink = g_sink + sink;
        });
      });

  out["protocols.on_response_ns"] = batched_ns(
      tracer, "probe.on_response", "protocols", walks.responses.size(), [&] {
        std::vector<randsync::ProcessPtr> fresh;
        for (const Walks::Response& r : walks.responses) {
          fresh.push_back(r.process->clone());
        }
        return timed([&] {
          for (std::size_t i = 0; i < fresh.size(); ++i) {
            fresh[i]->on_response(walks.responses[i].response);
          }
        });
      });

  out["runtime.clone_into_ns"] = batched_ns(
      tracer, "probe.clone_into", "runtime", walks.samples.size(), [&] {
        return timed([&] {
          for (const Configuration& sample : walks.samples) {
            sample.clone_into(scratch);
          }
        });
      });

  out["runtime.all_decided_ns"] = batched_ns(
      tracer, "probe.all_decided", "runtime", walks.samples.size(), [&] {
        return timed([&] {
          std::uint64_t sink = 0;
          for (const Configuration& sample : walks.samples) {
            sink += sample.all_decided() ? 1 : 0;
          }
          g_sink = g_sink + sink;
        });
      });
}

void probe_explorer_layers(Tracer& tracer, const Walks& walks,
                           const randsync::SymmetrySpec* spec, Values& out) {
  Configuration scratch = walks.initial.clone();
  const double with_fp =
      batched_ns(tracer, "probe.step+fingerprint", "runtime", walks.steps, [&] {
        std::uint64_t sink = 0;
        const std::int64_t ns =
            replay_walks(walks, scratch, [&](const Configuration& c) {
              sink += c.state_fingerprint().lo;
            });
        g_sink = g_sink + sink;
        return ns;
      });
  const double step_only =
      batched_ns(tracer, "probe.step", "runtime", walks.steps, [&] {
        return replay_walks(walks, scratch, [](const Configuration&) {});
      });
  out["runtime.fingerprint_ns"] = with_fp - step_only;

  out["state_set.claim_ns"] = batched_ns(
      tracer, "probe.claim", "verify", walks.fingerprints.size(), [&] {
        randsync::StateSet set(64, /*wide=*/false);
        return timed([&] {
          std::uint64_t ticket = 0;
          for (const randsync::StateFingerprint& fp : walks.fingerprints) {
            (void)set.claim({fp.lo, 0}, randsync::StateSet::kTicketTag |
                                            ticket++);
          }
        });
      });

  if (spec == nullptr) {
    return;
  }
  out["symmetry.canonical_fp_ns"] = batched_ns(
      tracer, "probe.canonical_fingerprint", "verify", walks.samples.size(),
      [&] {
        randsync::SymmetryScratch sym;
        return timed([&] {
          std::uint64_t sink = 0;
          for (const Configuration& sample : walks.samples) {
            sink += randsync::canonical_fingerprint(sample, *spec, sym).lo;
          }
          g_sink = g_sink + sink;
        });
      });
  out["por.persistent_set_ns"] = batched_ns(
      tracer, "probe.persistent_set", "verify", walks.samples.size(), [&] {
        return timed([&] {
          std::uint64_t sink = 0;
          for (const Configuration& sample : walks.samples) {
            sink += randsync::persistent_set(sample).size();
          }
          g_sink = g_sink + sink;
        });
      });
}

void probe_store(Tracer& tracer, const Walks& walks, const std::string& dir,
                 std::uint64_t seed, Values& out) {
  // The explorer spills 128 KiB edge chunks and 384 KiB node chunks.
  constexpr std::size_t kChunk = std::size_t{128} << 10;
  constexpr std::size_t kChunks = 256;  // 32 MiB per batch
  constexpr double kMiB = 1024.0 * 1024.0;
  std::vector<std::uint8_t> chunk(kChunk);
  for (std::size_t i = 0; i < kChunk; ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 131 + seed);
  }
  std::vector<double> append_rate;
  std::vector<double> read_rate;
  randsync::SplitMixCoin coin(seed);
  for (int b = 0; b < kBatches; ++b) {
    randsync::SpillFile file;
    if (!file.open(dir, "probe")) {
      throw std::runtime_error("cannot open a spill file in " + dir);
    }
    std::int64_t ns = 0;
    {
      const Scope span(&tracer, "probe.spill_append", "verify", kChunks);
      ns = timed([&] {
        for (std::size_t c = 0; c < kChunks; ++c) {
          (void)file.append(chunk.data(), kChunk);
        }
      });
    }
    append_rate.push_back(kChunks * kChunk / kMiB / (ns * 1e-9));
    std::vector<std::uint8_t> back(kChunk);
    {
      const Scope span(&tracer, "probe.spill_read", "verify", kChunks);
      ns = timed([&] {
        for (std::size_t c = 0; c < kChunks; ++c) {
          file.read(coin.below(kChunks) * kChunk, back.data(), kChunk);
        }
      });
    }
    read_rate.push_back(kChunks * kChunk / kMiB / (ns * 1e-9));
  }
  out["store.spill_append_mib_per_s"] = median(append_rate);
  out["store.spill_read_mib_per_s"] = median(read_rate);

  Configuration scratch = walks.initial.clone();
  out["store.rebuild_ns_per_step"] =
      batched_ns(tracer, "probe.apply_deltas", "runtime", walks.steps, [&] {
        std::int64_t total = 0;
        for (const auto& schedule : walks.schedules) {
          walks.initial.clone_into(scratch);
          total += timed([&] { scratch.apply_deltas(schedule); });
        }
        return total;
      });
}

std::pair<double, double> probe_policy(Tracer& tracer,
                                       const Configuration& initial,
                                       randsync::PolicyKind kind,
                                       std::uint64_t seed,
                                       std::size_t target_steps,
                                       std::size_t max_steps) {
  const auto policy = randsync::make_policy(kind);
  Configuration scratch = initial.clone();
  std::vector<std::vector<ProcessId>> trials;
  std::size_t steps = 0;
  std::int64_t pick_and_step = 0;
  {
    const Scope span(&tracer, "probe.policy." + randsync::to_string(kind),
                     "verify");
    for (std::uint64_t t = 0; steps < target_steps; ++t) {
      initial.clone_into(scratch);
      randsync::SplitMixCoin coin(randsync::derive_seed(seed, t));
      policy->reset(scratch, coin);
      std::vector<ProcessId> pids;
      pick_and_step += timed([&] {
        while (pids.size() < max_steps) {
          const auto pid = policy->next(scratch, coin);
          if (!pid) {
            break;
          }
          (void)scratch.step(*pid);
          pids.push_back(*pid);
        }
      });
      steps += pids.size();
      trials.push_back(std::move(pids));
    }
  }
  std::int64_t step_only = 0;
  {
    const Scope span(&tracer, "probe.policy_replay", "runtime", steps);
    for (const auto& pids : trials) {
      initial.clone_into(scratch);
      step_only += timed([&] {
        for (const ProcessId pid : pids) {
          (void)scratch.step(pid);
        }
      });
    }
  }
  const double per_step = static_cast<double>(step_only) /
                          static_cast<double>(std::max<std::size_t>(steps, 1));
  const double pick =
      static_cast<double>(pick_and_step - step_only) /
      static_cast<double>(std::max<std::size_t>(steps, 1));
  return {pick, per_step};
}

double probe_rewind(Tracer& tracer, const Configuration& initial,
                    std::uint64_t seed) {
  constexpr std::uint64_t kRewinds = 2000;
  Configuration scratch = initial.clone();
  return batched_ns(tracer, "probe.rewind", "runtime", kRewinds, [&] {
    return timed([&] {
      for (std::uint64_t t = 0; t < kRewinds; ++t) {
        initial.clone_into(scratch);
        const std::uint64_t trial = randsync::trial_seed(seed, t);
        for (ProcessId pid = 0; pid < scratch.num_processes(); ++pid) {
          scratch.process_mut(pid).reseed(randsync::derive_seed(trial, pid));
        }
      }
    });
  });
}

}  // namespace perfbench
