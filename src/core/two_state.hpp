// The 2-state MIS process (Definition 4 of the paper).
//
// Each vertex holds a binary color. In every synchronous round, every
// *active* vertex — black with a black neighbor, or white with no black
// neighbor — resamples its color uniformly at random; all other vertices
// keep their color. Once the black set is a maximal independent set nothing
// is active and the process has stabilized.
//
// Randomness: the color drawn by vertex u in round t is CoinOracle's
// phi_t(u), exactly the coupling device of Section 2.1, so runs are
// reproducible and bit-identical to the beeping-model simulation.
//
// Implementation: a thin rule over ProcessEngine (core/engine.hpp). A round
// costs O(|A_t| + sum of deg(u) over vertices that changed color), and all
// trace aggregates (num_active, num_stable_black, num_unstable, ...) are
// O(1) incrementally maintained reads.
#pragma once

#include <cstdint>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// Definition 4 as an engine policy: transition table + activity predicate.
class TwoStateRule {
 public:
  using Color = Color2;
  static constexpr bool kTracksStability = true;

  explicit TwoStateRule(const CoinOracle& coins) : coins_(coins) {}

  int num_colors() const { return 2; }
  int num_counters() const { return 1; }  // cnt[0] = black neighbors
  Vertex contribution(Color2 c, int) const { return is_black(c) ? 1 : 0; }

  // Black with a black neighbor, or white without one — written as a
  // comparison, so the engine's per-vertex refresh does not branch on the
  // coin-driven color.
  bool active(Color2 c, const Vertex* cnt) const {
    return is_black(c) == (cnt[0] > 0);
  }
  // For the 2-state rule, the scheduled, active, and violating sets coincide.
  bool scheduled(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool violating(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool stable_black(Color2 c, const Vertex* cnt) const {
    return is_black(c) && cnt[0] == 0;
  }

  // Called only for active vertices: resample with phi_t(u).
  Color2 transition(Vertex u, Color2, const Vertex*, std::int64_t t) const {
    return coins_.fair_coin(t, u) ? Color2::kBlack : Color2::kWhite;
  }

  const CoinOracle& coins() const { return coins_; }

 private:
  CoinOracle coins_;
};

class TwoStateMIS {
 public:
  using Engine = ProcessEngine<TwoStateRule>;

  // `init` must have size g.num_vertices(); the graph must outlive the
  // process. Throws std::invalid_argument on size mismatch.
  TwoStateMIS(const Graph& g, std::vector<Color2> init, const CoinOracle& coins)
      : engine_(g, std::move(init), TwoStateRule(coins)) {}

  // Executes one synchronous round (round counter advances by one).
  void step() { engine_.step(); }

  // Rounds executed so far; colors() is c_t with t = round().
  std::int64_t round() const { return engine_.round(); }

  const Graph& graph() const { return engine_.graph(); }
  const std::vector<Color2>& colors() const { return engine_.colors(); }
  Color2 color(Vertex u) const { return engine_.color(u); }
  bool black(Vertex u) const { return is_black(color(u)); }

  // Number of black neighbors of u (maintained incrementally).
  Vertex black_neighbor_count(Vertex u) const { return engine_.counter(u, 0); }

  // u ∈ A_t: u takes a random transition in the next round.
  bool active(Vertex u) const { return engine_.active(u); }

  // u ∈ I_t: stable black (black with no black neighbor).
  bool stable_black(Vertex u) const { return engine_.stable_black(u); }

  // |B_t|, |A_t|, |I_t|, |V_t| — all O(1), engine-maintained (the V_t count
  // used to be an O(n + m) rescan per traced round).
  Vertex num_black() const { return engine_.color_count(Color2::kBlack); }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }
  Vertex num_gray() const { return 0; }  // uniform trace interface

  std::vector<Vertex> black_set() const;
  std::vector<Vertex> active_set() const;
  std::vector<Vertex> stable_black_set() const;
  std::vector<Vertex> unstable_set() const;

  // Stabilized ⟺ A_t = ∅ ⟺ the black set is an MIS.
  bool stabilized() const { return engine_.stabilized(); }

  // Fault-injection / test hook: overwrite one vertex's color, keeping the
  // internal counters consistent. Counts as a transient fault, not a round.
  void force_color(Vertex u, Color2 c) { engine_.force_color(u, c); }

  const CoinOracle& coins() const { return engine_.rule().coins(); }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
};

}  // namespace ssmis
