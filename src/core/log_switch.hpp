// Logarithmic switch processes (Definitions 25 and 26).
//
// An (a, b)-logarithmic switch emits a per-vertex binary signal
// sigma_t(u) ∈ {on, off} with:
//   S1: every off-run has length at most a ln n;
//   S2 (diam <= 2): after warm-up, every off-run has length >= (a/6) ln n;
//   S3 (diam <= 2): after O(1) rounds, every on-run has length <= b.
//
// `SwitchProcess` is the interface consumed by the 3-color MIS process. Its
// implementation is RandomizedLogSwitch, the paper's construction: a phase
// clock with sigma = on iff level <= D - 1. The paper's D = 3 clock has
// levels {0..5} and 6 states/vertex, giving the 3-color process its
// 3 x 6 = 18 total states; other D serve the D = 2 vs 3 vs 4 ablation.
// Deterministic test doubles live in tests/switch_doubles.hpp.
#pragma once

#include <cstdint>
#include <utility>

#include "core/phase_clock.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class SwitchProcess {
 public:
  virtual ~SwitchProcess() = default;

  // Advances the switch by one round, in lockstep with the MIS process.
  virtual void step() = 0;

  // Replays `rounds` consecutive step()s (no-op for rounds <= 0). Used by
  // the 3-color fast-forward path, which defers switch rounds while no
  // gray vertex can read sigma and replays them — bit-identically, since
  // every implementation is a pure function of (state, round, coins) —
  // just before one can. Implementations with cheaper batch advancement
  // override this.
  virtual void advance(std::int64_t rounds) {
    for (std::int64_t i = 0; i < rounds; ++i) step();
  }

  // sigma_t(u) where t is the number of step() calls so far.
  virtual bool on(Vertex u) const = 0;

  virtual std::int64_t round() const = 0;

  // Per-vertex state count (6 for the paper's switch), for state accounting.
  virtual int num_states() const = 0;
};

// The paper's randomized logarithmic switch (Definition 26) over a phase
// clock: sigma(u) = on iff level(u) <= D - 1.
class RandomizedLogSwitch final : public SwitchProcess {
 public:
  // The paper's switch: D = 3 (6 levels, on iff level <= 2), zeta = 2^-7
  // (a = 4/zeta = 512), random initial levels.
  RandomizedLogSwitch(const Graph& g, const CoinOracle& coins);
  // Any clock: another D, zeta or set of initial levels.
  explicit RandomizedLogSwitch(PhaseClock clock) : clock_(std::move(clock)) {}

  void step() override { clock_.step(); }
  void advance(std::int64_t rounds) override { clock_.advance(rounds); }
  bool on(Vertex u) const override { return clock_.level(u) <= clock_.d() - 1; }
  std::int64_t round() const override { return clock_.round(); }
  int num_states() const override { return clock_.num_states(); }

  PhaseClock& clock() { return clock_; }
  const PhaseClock& clock() const { return clock_; }

  // The paper's parameter a = 4/zeta for which S1-S3 hold (Lemma 27).
  double parameter_a() const { return 4.0 / clock_.zeta(); }

 private:
  PhaseClock clock_;
};

// Measured on/off run-length statistics of a switch execution; the
// Lemma 27 experiment (S1-S3) is built on this.
struct SwitchRunStats {
  std::int64_t max_off_run = 0;
  std::int64_t min_completed_off_run = 0;  // shortest *completed* off-run after warm-up
  std::int64_t max_on_run = 0;             // after warm-up
  std::int64_t rounds_observed = 0;
};

// Runs `sw` for `rounds` rounds and aggregates per-vertex run lengths.
// Runs still open at the horizon count toward the maxima but not the minima.
// `warmup` rounds are discarded before min/max-on accounting (S2/S3 hold
// only after a warm-up; S1 is accounted from round 0).
SwitchRunStats measure_switch_runs(SwitchProcess& sw, Vertex n, std::int64_t rounds,
                                   std::int64_t warmup);

}  // namespace ssmis
