// Logarithmic switch processes (Definitions 25 and 26).
//
// An (a, b)-logarithmic switch emits a per-vertex binary signal
// sigma_t(u) ∈ {on, off} with:
//   S1: every off-run has length at most a ln n;
//   S2 (diam <= 2): after warm-up, every off-run has length >= (a/6) ln n;
//   S3 (diam <= 2): after O(1) rounds, every on-run has length <= b.
//
// `SwitchProcess` is the interface consumed by the 3-color MIS process;
// implementations:
//   * RandomizedLogSwitch — the paper's construction: a D = 3 phase clock
//     with levels {0..5}; sigma = on iff level <= 2. Uses 6 states/vertex,
//     giving the 3-color process its 3 x 6 = 18 total states.
//   * PhaseClockSwitch — same mapping over an arbitrary-D clock (for the
//     D = 2 vs 3 ablation). on iff level <= D - 1.
//   * AlwaysOnSwitch / NeverOnSwitch — degenerate test doubles.
//   * PeriodicSwitch — deterministic oracle switch (off for `off_len`
//     rounds, then on for `on_len`), for unit-testing the 3-color color
//     dynamics independently of clock randomness.
#pragma once

#include <cstdint>
#include <memory>

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

// The paper's randomized logarithmic switch (Definition 26): 6 levels,
// sigma(u) = on iff level(u) <= 2, zeta = 2^-7 by default (a = 4/zeta = 512).
class RandomizedLogSwitch final : public SwitchProcess {
 public:
  RandomizedLogSwitch(const Graph& g, const CoinOracle& coins,
                      std::uint64_t zeta_num = 1, unsigned zeta_log2_den = 7);
  RandomizedLogSwitch(const Graph& g, const std::vector<int>& init_levels,
                      const CoinOracle& coins, std::uint64_t zeta_num = 1,
                      unsigned zeta_log2_den = 7);

  void step() override { clock_.step(); }
  void advance(std::int64_t rounds) override { clock_.advance(rounds); }
  bool on(Vertex u) const override { return clock_.level(u) <= 2; }
  std::int64_t round() const override { return clock_.round(); }
  int num_states() const override { return clock_.num_states(); }

  PhaseClock& clock() { return clock_; }
  const PhaseClock& clock() const { return clock_; }

  // The paper's parameter a = 4/zeta for which S1-S3 hold (Lemma 27).
  double parameter_a() const { return 4.0 / clock_.zeta(); }

 private:
  PhaseClock clock_;
};

// Arbitrary-D clock with the generalized mapping on iff level <= D-1.
class PhaseClockSwitch final : public SwitchProcess {
 public:
  PhaseClockSwitch(const Graph& g, int d, const CoinOracle& coins,
                   std::uint64_t zeta_num = 1, unsigned zeta_log2_den = 7);

  void step() override { clock_.step(); }
  void advance(std::int64_t rounds) override { clock_.advance(rounds); }
  bool on(Vertex u) const override { return clock_.level(u) <= clock_.d() - 1; }
  std::int64_t round() const override { return clock_.round(); }
  int num_states() const override { return clock_.num_states(); }

  PhaseClock& clock() { return clock_; }

 private:
  PhaseClock clock_;
};

class AlwaysOnSwitch final : public SwitchProcess {
 public:
  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override { return true; }
  std::int64_t round() const override { return round_; }
  int num_states() const override { return 1; }

 private:
  std::int64_t round_ = 0;
};

class NeverOnSwitch final : public SwitchProcess {
 public:
  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override { return false; }
  std::int64_t round() const override { return round_; }
  int num_states() const override { return 1; }

 private:
  std::int64_t round_ = 0;
};

// Deterministic global cycle: off for `off_len` rounds, on for `on_len`.
class PeriodicSwitch final : public SwitchProcess {
 public:
  PeriodicSwitch(std::int64_t off_len, std::int64_t on_len);

  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override {
    return round_ % (off_len_ + on_len_) >= off_len_;
  }
  std::int64_t round() const override { return round_; }
  int num_states() const override {
    return static_cast<int>(off_len_ + on_len_);
  }

 private:
  std::int64_t off_len_;
  std::int64_t on_len_;
  std::int64_t round_ = 0;
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
