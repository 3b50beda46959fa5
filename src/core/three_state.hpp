// The 3-state MIS process (Definition 5 of the paper).
//
// States {black1, black0, white}; both black states count as black. Update
// rule in round t (NC = set of neighbor colors at end of round t-1):
//
//   if c = black1, or (c = black0 and NC ∌ black1), or
//      (c = white and no neighbor is black)
//        -> c_t = uniform random in {black1, black0}
//   else if c = black0 (i.e. black0 with a black1 neighbor)
//        -> c_t = white
//   else  (white with a black neighbor)
//        -> unchanged
//
// Note on the white rule: the paper writes "NC_t(u) = {white}". For graphs
// with isolated vertices that literal reading (NC = ∅ ≠ {white}) would leave
// an isolated white vertex stuck forever and the process could never reach
// an MIS, so — as clearly intended — we implement the condition as "white
// and no black neighbor". On graphs without isolated vertices the two
// readings coincide.
//
// A stable black vertex alternates between black1/black0 forever; the black
// *set* is what stabilizes. No collision detection is needed: the process
// translates to the synchronous stone-age model with two one-bit channels
// ("some neighbor is black", "some neighbor is black1").
//
// Implemented as an engine rule (core/engine.hpp) with two incrementally
// maintained counters per vertex. The scheduled set is everything except
// covered whites, so a round costs O(|scheduled| + sum deg(changed)) — on a
// stabilized graph that is O(|MIS|) per round (the stable blacks keep
// re-randomizing their black1/black0 representation by design).
#pragma once

#include <cstdint>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ThreeStateRule {
 public:
  using Color = Color3;
  static constexpr bool kTracksStability = true;
  static constexpr int kBlackNbr = 0;   // neighbors in {black0, black1}
  static constexpr int kBlack1Nbr = 1;  // neighbors in {black1}

  explicit ThreeStateRule(const CoinOracle& coins) : coins_(coins) {}

  int num_colors() const { return 3; }
  int num_counters() const { return 2; }
  Vertex contribution(Color3 c, int j) const {
    return j == kBlackNbr ? (is_black(c) ? 1 : 0) : (c == Color3::kBlack1 ? 1 : 0);
  }

  // u takes the random {black1, black0} transition next round.
  bool active(Color3 c, Heard h) const {
    if (c == Color3::kBlack1) return true;
    if (c == Color3::kBlack0) return !h.has(kBlack1Nbr);
    return !h.has(kBlackNbr);  // white with no black neighbor
  }
  // Takes ANY transition: active, or black0 demoting to white. Equivalently,
  // everything except a white vertex that already has a black neighbor.
  bool scheduled(Color3 c, Heard h) const {
    return !(c == Color3::kWhite && h.has(kBlackNbr));
  }
  // Black-set violation: black with a black neighbor, or white without one.
  bool violating(Color3 c, Heard h) const { return is_black(c) == h.has(kBlackNbr); }
  bool stable_black(Color3 c, Heard h) const {
    return is_black(c) && !h.has(kBlackNbr);
  }

  Color3 transition(Vertex u, Color3 c, Heard h, std::int64_t t) const {
    if (active(c, h))
      return coins_.fair_coin(t, u) ? Color3::kBlack1 : Color3::kBlack0;
    return Color3::kWhite;  // scheduled non-active: black0 with black1 neighbor
  }

  // --- stable-periodic fast-forward (engine.hpp, FastForwardRule) ----------
  //
  // A stable black (black, no black neighbor) re-randomizes black1/black0
  // forever: its color at round T is fair_coin(T, u) alone — a memoryless
  // orbit (period-1 output projection: "black"). Along it every predicate
  // above is constant (active/scheduled/stable_black true, violating
  // false), and the only neighbor-counter component the orbit moves is
  // kBlack1Nbr — which only black0 vertices hear, and no black vertex can
  // be adjacent to a stable black. That is the output-projection contract.
  static constexpr std::int64_t kOrbitPeriodHint = 1;
  bool fast_forwardable(Color3 c, Heard h) const { return stable_black(c, h); }
  Color3 orbit_color(Vertex u, Color3 c, Heard /*h*/,
                     std::int64_t entry_round, std::int64_t now) const {
    if (now == entry_round) return c;
    return coins_.fair_coin(now, u) ? Color3::kBlack1 : Color3::kBlack0;
  }

 private:
  CoinOracle coins_;
};

class ThreeStateMIS {
 public:
  using Engine = ProcessEngine<ThreeStateRule>;

  ThreeStateMIS(const Graph& g, std::vector<Color3> init, const CoinOracle& coins)
      : engine_(g, std::move(init), ThreeStateRule(coins)) {}

  void step() { engine_.step(); }
  std::int64_t round() const { return engine_.round(); }

  const Graph& graph() const { return engine_.graph(); }
  const std::vector<Color3>& colors() const { return engine_.colors(); }
  Color3 color(Vertex u) const { return engine_.color(u); }
  bool black(Vertex u) const { return is_black(color(u)); }

  Vertex black_neighbor_count(Vertex u) const {
    return engine_.counter(u, ThreeStateRule::kBlackNbr);
  }
  Vertex black1_neighbor_count(Vertex u) const {
    return engine_.counter(u, ThreeStateRule::kBlack1Nbr);
  }

  // u takes the random {black1, black0} transition next round.
  bool active(Vertex u) const { return engine_.active(u); }

  // Zero violations ⟺ the black set is an MIS ⟺ stabilized.
  bool stabilized() const { return engine_.stabilized(); }

  bool stable_black(Vertex u) const { return engine_.stable_black(u); }

  // Raw histogram sum: exact under fast-forward (the parked orbits stay
  // within {black0, black1}) and O(1), so the per-round tracer never forces
  // a periodic-set sync.
  Vertex num_black() const {
    return engine_.raw_color_count(Color3::kBlack0) +
           engine_.raw_color_count(Color3::kBlack1);
  }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }
  Vertex num_gray() const { return 0; }

  std::vector<Vertex> black_set() const;

  // Overwrites one vertex's color in O(deg(u)) (the pre-engine version did a
  // full O(n + m) counter rebuild).
  void force_color(Vertex u, Color3 c) { engine_.force_color(u, c); }

  // Stable-periodic fast-forward toggle (on by default; bit-identical
  // trajectories either way — a pure throughput knob).
  void set_fast_forward(bool on) { engine_.set_fast_forward(on); }
  bool fast_forward_enabled() const { return engine_.fast_forward_enabled(); }
  Vertex num_fast_forwarded() const { return engine_.num_fast_forwarded(); }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
};

}  // namespace ssmis
