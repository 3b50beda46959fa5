// PriorityMIS: a weight/ID-biased 2-state variant — the second registry
// workload. Same states, same activity predicate, same stabilization target
// (the black set is an MIS) as Definition 4, but an active vertex u turns
// black with a PER-VERTEX probability p_u derived from a priority weight
// w_u ∈ [0, 1]:
//
//     p_u = bias-lo + (bias-hi - bias-lo) * w_u
//
// Higher-priority vertices claim black more aggressively and back off less,
// so the stabilized MIS is biased toward them — a cheap knob for
// weighted-MIS-style workloads (cluster-head election where battery level
// or link quality should win) without leaving the 2-state protocol family
// or its weak-communication implementability. Correctness is untouched:
// any 0 < p_u < 1 keeps every absorbing configuration an MIS and
// stabilization almost sure; only the distribution over MISes shifts
// (tests/test_matching.cpp measures the skew).
//
// Weight modes (the `priority` option): "id" (w = u / (n-1), the ID bias),
// "degree" (w = deg(u) / max_deg — high-degree vertices dominate), and
// "random" (w drawn once per (seed, vertex) from the oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class PriorityMisRule {
 public:
  using Color = Color2;
  static constexpr bool kTracksStability = true;

  // `biases` must hold one probability in (0, 1) per vertex; throws
  // std::invalid_argument otherwise.
  PriorityMisRule(const CoinOracle& coins,
                  std::shared_ptr<const std::vector<double>> biases);

  int num_colors() const { return 2; }
  int num_counters() const { return 1; }  // cnt[0] = black neighbors
  Vertex contribution(Color2 c, int) const { return is_black(c) ? 1 : 0; }

  bool active(Color2 c, const Vertex* cnt) const {
    return is_black(c) == (cnt[0] > 0);
  }
  bool scheduled(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool violating(Color2 c, const Vertex* cnt) const { return active(c, cnt); }
  bool stable_black(Color2 c, const Vertex* cnt) const {
    return is_black(c) && cnt[0] == 0;
  }

  Color2 transition(Vertex u, Color2, const Vertex*, std::int64_t t) const {
    const double p = (*biases_)[static_cast<std::size_t>(u)];
    return coins_.bernoulli(t, u, CoinTag::kPriority, p) ? Color2::kBlack
                                                         : Color2::kWhite;
  }

  double bias(Vertex u) const { return (*biases_)[static_cast<std::size_t>(u)]; }

 private:
  CoinOracle coins_;
  // Shared: the engine copies the rule by value; the bias table is per-trial
  // immutable, so one allocation serves every copy.
  std::shared_ptr<const std::vector<double>> biases_;
};

class PriorityMIS {
 public:
  using Engine = ProcessEngine<PriorityMisRule>;

  PriorityMIS(const Graph& g, std::vector<Color2> init, const CoinOracle& coins,
              std::shared_ptr<const std::vector<double>> biases)
      : engine_(g, std::move(init), PriorityMisRule(coins, std::move(biases))) {}

  // Builds the per-vertex bias table for a weight mode ("id", "degree",
  // "random"); throws std::invalid_argument on an unknown mode or biases
  // outside (0, 1).
  static std::shared_ptr<const std::vector<double>> make_biases(
      const Graph& g, const std::string& mode, double lo, double hi,
      std::uint64_t seed);

  void step() { engine_.step(); }
  std::int64_t round() const { return engine_.round(); }

  const Graph& graph() const { return engine_.graph(); }
  const std::vector<Color2>& colors() const { return engine_.colors(); }
  bool black(Vertex u) const { return is_black(engine_.color(u)); }
  Vertex black_neighbor_count(Vertex u) const { return engine_.counter(u, 0); }
  bool active(Vertex u) const { return engine_.active(u); }
  bool stable_black(Vertex u) const { return engine_.stable_black(u); }
  double bias(Vertex u) const { return engine_.rule().bias(u); }

  bool stabilized() const { return engine_.stabilized(); }

  Vertex num_black() const { return engine_.color_count(Color2::kBlack); }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }
  Vertex num_gray() const { return 0; }

  std::vector<Vertex> black_set() const;

  void force_color(Vertex u, Color2 c) { engine_.force_color(u, c); }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
};

}  // namespace ssmis
