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
// Implemented as an engine rule (core/engine.hpp): the scheduled set is the
// active set plus the gray vertices (a gray vertex can turn white purely
// because its switch turns on, with no color change anywhere near it, so it
// stays on the worklist until it leaves gray). The switch advances in the
// rule's end-of-round hook, after the colors that read sigma_{t-1} commit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/log_switch.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ThreeColorRule {
 public:
  using Color = ColorG;
  static constexpr bool kTracksStability = true;

  // The switch is owned by the wrapping process; the rule only reads/steps it.
  ThreeColorRule(const CoinOracle& coins, SwitchProcess* sw)
      : coins_(coins), switch_(sw) {}

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
  // MIS violation: every non-black vertex (white *or* gray) needs a black
  // neighbor, and blacks must have none.
  bool violating(ColorG c, Heard h) const { return is_black(c) == h.has(0); }
  bool stable_black(ColorG c, Heard h) const { return is_black(c) && !h.has(0); }

  ColorG transition(Vertex u, ColorG c, Heard h, std::int64_t t) const {
    if (c == ColorG::kBlack && h.has(0))
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kGray;
    if (c == ColorG::kWhite && !h.has(0))
      return coins_.fair_coin(t, u) ? ColorG::kBlack : ColorG::kWhite;
    // Gray: reads sigma_{t-1} (the switch advances after this round commits).
    return switch_->on(u) ? ColorG::kWhite : ColorG::kGray;
  }

  // The switch advances in lockstep, *after* its round-(t-1) value was read.
  // Under deferral (the 3-color fast-forward path) the advancement is
  // recorded instead of executed: only gray transitions read sigma, so
  // while no gray vertex exists the O(n + m) clock round can be postponed
  // and replayed — bit-identically, the clock being autonomous — right
  // before the next round that could read it.
  void end_round(std::int64_t) {
    if (defer_switch_)
      ++deferred_rounds_;
    else
      switch_->step();
  }

  // Lazy-switch controls, driven by ThreeColorMIS::step (which guarantees
  // replay happens before any round with gray vertices decides).
  void set_defer_switch(bool defer) { defer_switch_ = defer; }
  std::int64_t deferred_rounds() const { return deferred_rounds_; }
  void replay_switch() {
    switch_->advance(deferred_rounds_);
    deferred_rounds_ = 0;
  }

 private:
  CoinOracle coins_;
  SwitchProcess* switch_;
  bool defer_switch_ = false;
  std::int64_t deferred_rounds_ = 0;
};

class ThreeColorMIS {
 public:
  using Engine = ProcessEngine<ThreeColorRule>;

  // Takes ownership of the switch, which must be freshly constructed (round
  // 0) and built over the same graph. Throws std::invalid_argument on size
  // mismatch or null/misaligned switch.
  ThreeColorMIS(const Graph& g, std::vector<ColorG> init,
                std::unique_ptr<SwitchProcess> sw, const CoinOracle& coins)
      : switch_(std::move(sw)),
        engine_(g, std::move(init), ThreeColorRule(coins, checked(switch_.get()))) {}

  // Paper-default construction: randomized 6-state logarithmic switch with
  // zeta = 2^-7 and random initial levels.
  static ThreeColorMIS with_randomized_switch(const Graph& g,
                                              std::vector<ColorG> init,
                                              const CoinOracle& coins) {
    return ThreeColorMIS(g, std::move(init),
                         std::make_unique<RandomizedLogSwitch>(g, coins), coins);
  }

  // One synchronous round. With fast-forward on (the default), the O(n + m)
  // switch round is deferred while the worklist is empty — grays are always
  // scheduled, so an empty worklist means no vertex reads sigma — and
  // replayed in a single batch before the next non-quiet round decides.
  // Gating on the worklist rather than the gray count alone keeps the
  // deferral from flapping pre-stabilization (sparse runs pass through
  // many zero-gray rounds whose actives re-spawn grays immediately, and a
  // one-round defer/replay cycle is pure overhead). Post-stabilization
  // (grays drained) a round is O(1); trajectories are bit-identical.
  void step() {
    if (fast_forward_) {
      ThreeColorRule& r = engine_.rule();
      const bool quiet = engine_.worklist().empty();
      if (!quiet && r.deferred_rounds() > 0) r.replay_switch();
      r.set_defer_switch(quiet);
    }
    engine_.step();
  }
  std::int64_t round() const { return engine_.round(); }

  const Graph& graph() const { return engine_.graph(); }
  const std::vector<ColorG>& colors() const { return engine_.colors(); }
  ColorG color(Vertex u) const { return engine_.color(u); }
  bool black(Vertex u) const { return is_black(color(u)); }
  bool gray(Vertex u) const { return color(u) == ColorG::kGray; }

  Vertex black_neighbor_count(Vertex u) const { return engine_.counter(u, 0); }

  // u takes a random transition next round (gray vertices never do).
  bool active(Vertex u) const { return engine_.active(u); }

  bool stable_black(Vertex u) const { return engine_.stable_black(u); }

  // Stabilized ⟺ black set is an MIS: no black-black edge, and every
  // non-black vertex (white *or* gray) has a black neighbor.
  bool stabilized() const { return engine_.stabilized(); }

  Vertex num_black() const { return engine_.color_count(ColorG::kBlack); }
  Vertex num_gray() const { return engine_.color_count(ColorG::kGray); }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }

  std::vector<Vertex> black_set() const;

  // Exact-switch accessors: replay any deferred clock rounds first, so
  // external reads (and fault injections via force_level) always see — and
  // mutate — the logical round-aligned switch state.
  const SwitchProcess& switch_process() const {
    const_cast<ThreeColorMIS*>(this)->sync_switch();
    return *switch_;
  }
  SwitchProcess& switch_process() {
    sync_switch();
    return *switch_;
  }

  // Combined per-vertex state count (3 colors x switch states).
  int num_states() const { return 3 * switch_->num_states(); }

  // Overwrites one vertex's color in O(deg(u)) (the pre-engine version did a
  // full O(n + m) counter rebuild).
  void force_color(Vertex u, ColorG c) { engine_.force_color(u, c); }

  // Transient fault at u from 64 random bits: a random color and, when the
  // switch is a phase clock (RandomizedLogSwitch, PhaseClockSwitch), a
  // random clock level — the full per-vertex state. MisFamilyAdapter routes
  // Process::inject_fault here.
  bool inject_fault(Vertex u, std::uint64_t w);

  // Stable-periodic fast-forward toggle (on by default): for 3-color the
  // optimization is the lazy switch above — the engine side has no orbits
  // to declare (stable blacks and covered whites already leave the
  // worklist). Turning it off replays any deferred rounds, restoring exact
  // lockstep. Bit-identical trajectories either way.
  void set_fast_forward(bool on) {
    if (!on) {
      sync_switch();
      engine_.rule().set_defer_switch(false);
    }
    fast_forward_ = on;
  }
  bool fast_forward_enabled() const { return fast_forward_; }
  std::int64_t deferred_switch_rounds() const {
    return engine_.rule().deferred_rounds();
  }

  const Engine& engine() const { return engine_; }

 private:
  static SwitchProcess* checked(SwitchProcess* sw) {
    if (sw == nullptr)
      throw std::invalid_argument("ThreeColorMIS: switch must not be null");
    if (sw->round() != 0)
      throw std::invalid_argument("ThreeColorMIS: switch must start at round 0");
    return sw;
  }

  void sync_switch() {
    ThreeColorRule& r = engine_.rule();
    if (r.deferred_rounds() > 0) r.replay_switch();
  }

  // Declaration order matters: the engine's rule holds a raw pointer into
  // `switch_`, which must outlive (and be constructed before) the engine.
  std::unique_ptr<SwitchProcess> switch_;
  Engine engine_;
  bool fast_forward_ = true;
};

}  // namespace ssmis
