// Parameterized variant of the 2-state MIS process, for the ablation
// experiments around the paper's design choices:
//
//  * `black_bias` q: an active vertex resamples to black with probability q
//    (the paper fixes q = 1/2; footnote 1 notes the transition choice is a
//    simplification for analysis, so we measure how q affects speed);
//  * `eager_white` : a white active vertex becomes black with probability 1
//    (the deterministic transition footnote 1 mentions), while black active
//    vertices still resample with bias q.
//
// With q = 1/2 and eager_white = false this is exactly Definition 4, which
// the test suite verifies against TwoStateMIS.
//
// Implemented as an engine rule (core/engine.hpp): same activity predicate
// as the 2-state process, different coin stream (CoinTag::kAblation).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class TwoStateVariantRule {
 public:
  using Color = Color2;
  static constexpr bool kTracksStability = true;

  // Throws std::invalid_argument unless 0 < black_bias < 1 (q = 0 or 1 can
  // deadlock).
  TwoStateVariantRule(const CoinOracle& coins, double black_bias, bool eager_white)
      : coins_(coins), black_bias_(black_bias), eager_white_(eager_white) {
    if (!(black_bias > 0.0) || !(black_bias < 1.0))
      throw std::invalid_argument("TwoStateVariant: black_bias must be in (0,1)");
  }

  int num_colors() const { return 2; }
  int num_counters() const { return 1; }
  Vertex contribution(Color2 c, int) const { return is_black(c) ? 1 : 0; }

  bool active(Color2 c, const Vertex* cnt) const {
    return is_black(c) == (cnt[0] > 0);
  }
  bool scheduled(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool violating(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool stable_black(Color2 c, const Vertex* cnt) const {
    return is_black(c) && cnt[0] == 0;
  }

  Color2 transition(Vertex u, Color2 c, const Vertex*, std::int64_t t) const {
    bool to_black;
    if (eager_white_ && !is_black(c)) {
      to_black = true;  // deterministic white -> black
    } else {
      to_black = coins_.bernoulli(t, u, CoinTag::kAblation, black_bias_);
    }
    return to_black ? Color2::kBlack : Color2::kWhite;
  }

  double black_bias() const { return black_bias_; }
  bool eager_white() const { return eager_white_; }

 private:
  CoinOracle coins_;
  double black_bias_;
  bool eager_white_;
};

class TwoStateVariant {
 public:
  using Engine = ProcessEngine<TwoStateVariantRule>;

  // Throws std::invalid_argument unless 0 < black_bias < 1 and init matches
  // the graph size.
  TwoStateVariant(const Graph& g, std::vector<Color2> init, const CoinOracle& coins,
                  double black_bias, bool eager_white)
      : engine_(g, std::move(init),
                TwoStateVariantRule(coins, black_bias, eager_white)) {}

  void step() { engine_.step(); }
  std::int64_t round() const { return engine_.round(); }

  const Graph& graph() const { return engine_.graph(); }
  const std::vector<Color2>& colors() const { return engine_.colors(); }
  bool black(Vertex u) const { return is_black(engine_.color(u)); }
  Vertex black_neighbor_count(Vertex u) const { return engine_.counter(u, 0); }
  bool active(Vertex u) const { return engine_.active(u); }

  bool stabilized() const { return engine_.stabilized(); }

  Vertex num_black() const { return engine_.color_count(Color2::kBlack); }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }
  Vertex num_gray() const { return 0; }

  std::vector<Vertex> black_set() const;

  double black_bias() const { return engine_.rule().black_bias(); }
  bool eager_white() const { return engine_.rule().eager_white(); }

  // Fault-injection / test hook: overwrite one vertex's color in O(deg(u)),
  // keeping the internal counters consistent.
  void force_color(Vertex u, Color2 c) { engine_.force_color(u, c); }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
};

}  // namespace ssmis
