// Shared experiment driver: every bench binary measures stabilization times
// through this module so trials, seeds, initial patterns, timeout handling,
// and the parallel runtime are uniform across the reproduction tables.
//
// Protocol dispatch goes through the ProtocolRegistry (harness/registry.hpp):
// any registered protocol — the paper's processes, the communication-model
// networks, daemon runs, new workloads — measures through the exact same
// path. The registry-era drivers are bit-identical to the deleted
// ProcessKind enum dispatch (golden fingerprints in tests/test_registry.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/init.hpp"
#include "core/trace.hpp"
#include "graph/graph.hpp"
#include "harness/registry.hpp"
#include "stats/summary.hpp"

namespace ssmis {

struct MeasureConfig {
  // Registered protocol name (see ProtocolRegistry::names()) plus its
  // construction options. `init` is kept alongside for convenience; the
  // harness folds it into the params before each construction.
  std::string protocol = "2state";
  ProtocolParams params;
  InitPattern init = InitPattern::kUniformRandom;
  int trials = 20;
  std::uint64_t seed = 1;
  std::int64_t max_rounds = 1000000;
  // Parallel runtime (defaults keep the old sequential behavior). With
  // threads > 1 and batch == true, whole trials interleave across the
  // shared thread pool (TrialBatch); batch == false runs the trials in
  // index order on the calling thread. Either way results are
  // bit-identical to threads == 1 (docs/architecture.md, "Parallel
  // runtime").
  int threads = 1;
  bool batch = true;
};

// Seed of trial i under the seed-assignment contract: base seed + i,
// independent of thread count and scheduling order.
inline std::uint64_t trial_seed(const MeasureConfig& config, int trial) {
  return config.seed + static_cast<std::uint64_t>(trial);
}

struct Measurements {
  std::vector<double> stabilization_rounds;  // one entry per stabilized trial
  // Seed of every trial that hit max_rounds, in trial order: a parallel run
  // that times out is reproduced by re-running that one seed sequentially.
  std::vector<std::uint64_t> timeout_seeds;
  int timeouts = 0;  // == timeout_seeds.size(), kept for existing consumers
  Summary summary;   // over stabilization_rounds
};

// Runs `config.trials` independent executions of the chosen protocol on `g`
// (seeds seed, seed+1, ...), each from `config.init` states, and verifies
// every stabilized run's output against the protocol's validity predicate
// (aborts via exception if invalid — the harness never reports an invalid
// "success"). Trials are scheduled over TrialBatch per
// config.threads/config.batch; the returned Measurements are identical for
// every thread count.
Measurements measure_stabilization(const Graph& g, const MeasureConfig& config);

// Single traced run, for shape plots (config.threads and config.batch are
// irrelevant for one run).
RunResult traced_run(const Graph& g, const MeasureConfig& config);

// Per-vertex stabilization times of one run: entry u is the first round at
// the end of which the protocol reports u settled (for the MIS family, u
// covered by N+(I_t) — stability is monotone, so this is u's stabilization
// time per Section 2's definition), or -1 if the run hit the horizon before
// u settled. Used by the local-vs-global convergence experiment: most
// vertices settle long before the last one.
std::vector<std::int64_t> vertex_stabilization_times(const Graph& g,
                                                     const MeasureConfig& config);

// Batched variant: one per-vertex time vector per trial, for seeds
// seed..seed+trials-1, trials interleaved across config.threads. Entry i
// equals vertex_stabilization_times with seed+i, for any thread count.
std::vector<std::vector<std::int64_t>> vertex_stabilization_times_batch(
    const Graph& g, const MeasureConfig& config);

}  // namespace ssmis
