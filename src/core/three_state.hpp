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
// maintained counters per vertex, run as an EngineProcess. The scheduled
// set is everything except covered whites, so a round costs O(|scheduled|
// + sum deg(changed)) — on a stabilized graph that is O(|MIS|) per round
// (the stable blacks keep re-randomizing their black1/black0
// representation by design).
#pragma once

#include <cstdint>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/engine_process.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class ThreeStateRule {
 public:
  using Color = Color3;
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
  bool in_mis(Color3 c) const { return is_black(c); }

  Color3 transition(Vertex u, Color3 c, Heard h, std::int64_t t) const {
    if (active(c, h))
      return coins_.fair_coin(t, u) ? Color3::kBlack1 : Color3::kBlack0;
    return Color3::kWhite;  // scheduled non-active: black0 with black1 neighbor
  }

  // --- stable-periodic fast-forward (engine.hpp, FastForwardRule) ----------
  //
  // A stable black (black, no black neighbor) re-randomizes black1/black0
  // forever: its color at round t is fair_coin(t, u) alone — a memoryless
  // orbit whose output projection, "black", is constant. Along it every
  // predicate above is constant (active/scheduled/stable_black true,
  // violating false), and the only neighbor-counter component the orbit
  // moves is kBlack1Nbr — which only black0 vertices hear, and no black
  // vertex can be adjacent to a stable black. That is the
  // output-projection contract.
  bool fast_forwardable(Color3 c, Heard h) const { return stable_black(c, h); }
  Color3 orbit_color(Vertex u, Color3 /*c*/, std::int64_t t) const {
    return coins_.fair_coin(t, u) ? Color3::kBlack1 : Color3::kBlack0;
  }

 private:
  CoinOracle coins_;
};

class ThreeStateMIS final : public EngineProcess<ThreeStateRule> {
 public:
  ThreeStateMIS(const Graph& g, std::vector<Color3> init, const CoinOracle& coins)
      : EngineProcess(g, std::move(init), ThreeStateRule(coins)) {}
};

}  // namespace ssmis
