// Activation daemons: the general adversarial-scheduler model of Section 1.
//
// The paper's synchronous 2-state process activates EVERY inconsistent
// vertex each round; the sequential algorithm of [Shukla et al. 95]
// activates exactly one. Both are special cases of a daemon that, each
// step, activates an arbitrary non-empty subset of the enabled vertices —
// and the observation the paper cites is that with *randomized* transitions
// the process stabilizes with probability 1 under every such daemon.
//
// DaemonMIS runs the 2-state rule under a pluggable ActivationDaemon:
//   * SynchronousDaemon   — all enabled vertices (the paper's process;
//                           bit-identical to TwoStateMIS given the oracle)
//   * CentralDaemon       — a single enabled vertex per step
//   * RandomSubsetDaemon  — each enabled vertex independently w.p. rho
//                           (rho -> 1 recovers synchronous behavior)
//
// DaemonMIS drives the same ProcessEngine<TwoStateRule> as the synchronous
// process, through the engine's subset-transition primitive: the enabled set
// IS the engine's scheduled worklist, so enabled-set queries are O(|enabled|)
// rather than O(n) scans. It is an EngineProcess whose round is one daemon
// step, so run_until_stabilized and the harness drive it unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/color.hpp"
#include "core/engine_process.hpp"
#include "core/two_state.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ActivationDaemon {
 public:
  virtual ~ActivationDaemon() = default;
  // Chooses a non-empty subset of `enabled` (sorted) to activate at `step`.
  // Returning an empty vector is treated as "activate all" to keep the
  // process live (a daemon must not starve the system forever).
  virtual std::vector<Vertex> activate(std::span<const Vertex> enabled,
                                       std::int64_t step) = 0;
  virtual std::string name() const = 0;
};

class SynchronousDaemon final : public ActivationDaemon {
 public:
  std::vector<Vertex> activate(std::span<const Vertex> enabled, std::int64_t) override {
    return {enabled.begin(), enabled.end()};
  }
  std::string name() const override { return "synchronous"; }
};

class CentralDaemon final : public ActivationDaemon {
 public:
  explicit CentralDaemon(std::uint64_t seed) : coins_(seed) {}
  std::vector<Vertex> activate(std::span<const Vertex> enabled,
                               std::int64_t step) override {
    const std::uint64_t w = coins_.word(step, 0, CoinTag::kScheduler);
    return {enabled[static_cast<std::size_t>(w % enabled.size())]};
  }
  std::string name() const override { return "central"; }

 private:
  CoinOracle coins_;
};

class RandomSubsetDaemon final : public ActivationDaemon {
 public:
  // Throws std::invalid_argument unless 0 < rho <= 1.
  RandomSubsetDaemon(double rho, std::uint64_t seed);
  std::vector<Vertex> activate(std::span<const Vertex> enabled,
                               std::int64_t step) override;
  std::string name() const override;

 private:
  double rho_;
  CoinOracle coins_;
};

// The 2-state rule under an activation daemon. Enabled = active in the
// Definition 4 sense (the engine's scheduled set); an activated vertex
// resamples its color with the oracle coin phi_step(u) — exactly
// TwoStateMIS's coin stream, so the SynchronousDaemon run is bit-identical
// to the synchronous process.
class DaemonMIS final : public EngineProcess<TwoStateRule> {
 public:
  // Throws std::invalid_argument on a null daemon or an init size mismatch.
  DaemonMIS(const Graph& g, std::vector<Color2> init,
            std::unique_ptr<ActivationDaemon> daemon, const CoinOracle& coins);

  // One daemon step: activates one chosen subset of the enabled vertices.
  void step() override;
  // Daemon steps so far: a central step activates one vertex, a synchronous
  // one up to n, so steps are not comparable across daemons, but the
  // horizon semantics are uniform.
  std::int64_t round() const override { return steps_; }
  // Vertices the last step() activated (0 once stabilized).
  Vertex last_activations() const { return last_activations_; }

 private:
  std::unique_ptr<ActivationDaemon> daemon_;
  std::int64_t steps_ = 0;
  Vertex last_activations_ = 0;
};

}  // namespace ssmis
