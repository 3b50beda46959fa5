#include "harness/experiment.hpp"

#include <memory>

#include "core/process.hpp"
#include "harness/trial_batch.hpp"
#include "support/narrow.hpp"

namespace ssmis {

namespace {

ProtocolParams params_for(const MeasureConfig& config) {
  return with_init(config.params, config.init);
}

// One trial: construct the protocol's process for `seed` via the registry,
// run to stabilization or the horizon, and check the stabilized output's
// validity. Thread-safe across concurrent calls with distinct seeds: the
// graph is read-only and every process owns its state. The run loop makes
// one virtual call each to step(), stabilized() and round() per round
// (core/process.hpp).
RunResult run_one(const Graph& g, const MeasureConfig& config, std::uint64_t seed,
                  TraceMode mode) {
  const std::unique_ptr<Process> process =
      ProtocolRegistry::instance().make(config.protocol, g, params_for(config), seed);
  const RunResult result = process->run(config.max_rounds, mode);
  if (result.stabilized) process->verify_output();  // throws on invalid output
  return result;
}

// The cell's trial scheduler: config.threads workers when batching,
// otherwise index order on the calling thread.
TrialBatch trial_batch(const MeasureConfig& config) {
  return TrialBatch(config.trials, config.batch ? config.threads : 1);
}

}  // namespace

Measurements measure_stabilization(const Graph& g, const MeasureConfig& config) {
  struct Outcome {
    std::int64_t rounds = 0;
    bool stabilized = false;
  };
  const TrialBatch batch = trial_batch(config);
  std::vector<Outcome> outcomes(static_cast<std::size_t>(batch.trials()));
  batch.run([&](int trial) {
    const RunResult result =
        run_one(g, config, trial_seed(config, trial), TraceMode::kNone);
    outcomes[static_cast<std::size_t>(trial)] = {result.rounds, result.stabilized};
  });
  // Index-order reduce: the reported sequences match a sequential run.
  Measurements out;
  for (int trial = 0; trial < batch.trials(); ++trial) {
    const Outcome& o = outcomes[static_cast<std::size_t>(trial)];
    if (o.stabilized) {
      out.stabilization_rounds.push_back(static_cast<double>(o.rounds));
    } else {
      out.timeout_seeds.push_back(trial_seed(config, trial));
    }
  }
  out.timeouts = narrow_cast<int>(out.timeout_seeds.size());
  out.summary = summarize(out.stabilization_rounds);
  return out;
}

RunResult traced_run(const Graph& g, const MeasureConfig& config) {
  return run_one(g, config, config.seed, TraceMode::kPerRound);
}

namespace {

// Records first-settled rounds. settled(u) reads the engine's stable-black
// coverage counters — exactly u ∈ N+(I_t), what the pre-registry driver
// derived by re-marking N+(stable blacks) every round.
void record_settled(const Process& process, std::int64_t round,
                    std::vector<std::int64_t>* times) {
  const Vertex n = process.graph().num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    auto& t = (*times)[static_cast<std::size_t>(u)];
    if (t < 0 && process.settled(u)) t = round;
  }
}

std::vector<std::int64_t> per_vertex_times_one(const Graph& g,
                                               const MeasureConfig& config,
                                               std::uint64_t seed) {
  const std::unique_ptr<Process> process =
      ProtocolRegistry::instance().make(config.protocol, g, params_for(config), seed);
  std::vector<std::int64_t> times(static_cast<std::size_t>(g.num_vertices()), -1);
  record_settled(*process, 0, &times);
  std::int64_t round = 0;
  while (!process->stabilized() && round < config.max_rounds) {
    process->step();
    ++round;
    record_settled(*process, round, &times);
  }
  return times;
}

}  // namespace

std::vector<std::int64_t> vertex_stabilization_times(const Graph& g,
                                                     const MeasureConfig& config) {
  return per_vertex_times_one(g, config, config.seed);
}

std::vector<std::vector<std::int64_t>> vertex_stabilization_times_batch(
    const Graph& g, const MeasureConfig& config) {
  return trial_batch(config).map<std::vector<std::int64_t>>([&](int trial) {
    return per_vertex_times_one(g, config, trial_seed(config, trial));
  });
}

}  // namespace ssmis
