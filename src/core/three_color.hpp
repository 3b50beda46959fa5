// The 3-color MIS process (Definition 28): the paper's extension that is
// provably poly(log n) on G(n,p) for the *entire* range 0 <= p <= 1
// (Theorem 3 / Theorem 32).
//
// Two sub-processes run in lockstep on the same graph:
//   1. a logarithmic switch emitting sigma_t(u) ∈ {on, off};
//   2. a 2-state-like color process over {black, white, gray}:
//        black with a black neighbor  -> uniform random {black, gray}
//        white with no black neighbor -> uniform random {black, white}
//        gray and sigma_{t-1} = on    -> white
//        otherwise                    -> unchanged
//
// Gray vertices behave like non-active white vertices toward their
// neighbors; the switch rate-limits how often a vertex can return to the
// white (and hence black-competing) pool, which is what fixes the dense
// regime the plain 2-state analysis cannot handle.
//
// With the randomized 6-state switch the combined per-vertex state space is
// 3 x 6 = 18 states, matching the paper's Theorem 3.
//
// Implemented as an engine rule (core/engine.hpp), run as an EngineProcess:
// the scheduled set is the active set plus the gray vertices (a gray vertex
// can turn white purely because its switch turns on, with no color change
// anywhere near it, so it stays on the worklist until it leaves gray). The
// rule only reads the switch; ThreeColorMIS owns it and advances it after
// each engine round, once the colors that read sigma_{t-1} have committed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/engine_process.hpp"
#include "core/log_switch.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ThreeColorRule {
 public:
  using Color = ColorG;

  // The rule reads sigma from `sw`, which its owner steps in lockstep with
  // the rounds and keeps alive (ThreeColorMIS).
  ThreeColorRule(const CoinOracle& coins, const SwitchProcess& sw)
      : coins_(coins), switch_(&sw) {}

  int num_colors() const { return 3; }
  int num_counters() const { return 1; }  // counter 0: black neighbors
  Vertex contribution(ColorG c, int) const { return is_black(c) ? 1 : 0; }

  // u takes a random transition next round (gray vertices never do).
  bool active(ColorG c, Heard h) const {
    if (c == ColorG::kBlack) return h.has(0);
    if (c == ColorG::kWhite) return !h.has(0);
    return false;
  }
  // Gray is always scheduled: its transition fires whenever its own switch
  // turns on, independent of any neighborhood color change.
  bool scheduled(ColorG c, Heard h) const {
    return c == ColorG::kGray || active(c, h);
  }
  // Gray counts as non-black: it needs a black neighbor like a white.
  bool in_mis(ColorG c) const { return is_black(c); }
  std::uint32_t mis_counters() const { return 1; }

  ColorG transition(Vertex u, ColorG c, Heard h, std::int64_t t) const {
    if (c == ColorG::kBlack && h.has(0))
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kGray;
    if (c == ColorG::kWhite && !h.has(0))
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kWhite;
    // Gray: reads sigma_{t-1} (the switch advances after this round commits).
    return switch_->on(u) ? ColorG::kWhite : ColorG::kGray;
  }

 private:
  CoinOracle coins_;
  const SwitchProcess* switch_;
};

class ThreeColorMIS final : public EngineProcess<ThreeColorRule> {
 public:
  // Takes ownership of the switch, which must be freshly constructed (round
  // 0) and built over the same graph. Throws std::invalid_argument on size
  // mismatch or a null/misaligned switch.
  ThreeColorMIS(const Graph& g, std::vector<ColorG> init,
                std::unique_ptr<SwitchProcess> sw, const CoinOracle& coins)
      : EngineProcess(g, std::move(init), ThreeColorRule(coins, fresh(sw))),
        switch_(std::move(sw)) {}

  // Paper-default construction: randomized 6-state logarithmic switch with
  // zeta = 2^-7 and random initial levels.
  static ThreeColorMIS with_randomized_switch(const Graph& g,
                                              std::vector<ColorG> init,
                                              const CoinOracle& coins) {
    return ThreeColorMIS(g, std::move(init),
                         std::make_unique<RandomizedLogSwitch>(g, coins), coins);
  }

  // One synchronous round: the engine round, which reads sigma_{t-1}, then
  // the switch round. With fast-forward on (the default), the O(n + m)
  // switch round is deferred while the worklist is empty — grays are always
  // scheduled, so an empty worklist means no vertex reads sigma — and
  // replayed in a single batch, bit-identically (the switch is autonomous),
  // before the next non-quiet round decides.
  // Gating on the worklist rather than the gray count alone keeps the
  // deferral from flapping pre-stabilization (sparse runs pass through
  // many zero-gray rounds whose actives re-spawn grays immediately, and a
  // one-round defer/replay cycle is pure overhead). Post-stabilization
  // (grays drained) a round is O(1); trajectories are bit-identical.
  void step() override;

  // Stable-periodic fast-forward toggle (on by default): for 3-color the
  // optimization is the lazy switch above — the engine side has no orbits
  // to declare (stable blacks and covered whites already leave the
  // worklist). Turning it off replays any deferred rounds, restoring exact
  // lockstep. Bit-identical trajectories either way.
  void set_fast_forward(bool on) override;

  // Transient fault at u from 64 random bits: a random color and, when the
  // switch is a phase clock (RandomizedLogSwitch), a random clock level —
  // the full per-vertex state.
  void inject_fault(Vertex u, std::uint64_t w) override;

  // The engine snapshot plus Gamma_t, the gray count.
  RoundStats snapshot() const override;

  // Exact-switch accessors: replay any deferred clock rounds first, so
  // external reads (and fault injections via force_level) always see — and
  // mutate — the logical round-aligned switch state.
  SwitchProcess& switch_process();
  const SwitchProcess& switch_process() const {
    return const_cast<ThreeColorMIS*>(this)->switch_process();
  }

 private:
  // `sw` itself, once checked to be non-null and at round 0.
  static const SwitchProcess& fresh(const std::unique_ptr<SwitchProcess>& sw);

  std::unique_ptr<SwitchProcess> switch_;  // the rule reads it
  std::int64_t deferred_rounds_ = 0;       // switch rounds not yet replayed
  bool fast_forward_ = true;
};

}  // namespace ssmis
