// The 2-state MIS process (Definition 4 of the paper) and the variants that
// change only which coin an active vertex flips.
//
// Each vertex holds a binary color. In every synchronous round, every
// *active* vertex — black with a black neighbor, or white with no black
// neighbor — draws a new color; all other vertices keep their color. Once
// the black set is a maximal independent set nothing is active and the
// process has stabilized.
//
// Randomness: the draw comes from one of three bias sources, each on its own
// CoinOracle tag so every trajectory pinned per protocol stays put:
//  * the fair coin phi_t(u) on CoinTag::kMisColor — Definition 4, and
//    exactly the coupling device of Section 2.1, so runs are bit-identical
//    to the beeping-model simulation (`2state`, `daemon`, `matching`);
//  * a constant q on CoinTag::kAblation, optionally with the deterministic
//    white -> black move of the paper's footnote 1 (`2state-variant`, the
//    ablation of the q = 1/2 choice);
//  * a per-vertex table p_u on CoinTag::kPriority (`priority`, see
//    make_priority_biases): the MIS skews toward high-p vertices.
// Any bias in (0, 1) keeps every absorbing configuration an MIS and
// stabilization almost sure; only the speed and the distribution over MISes
// move.
//
// Implementation: a thin rule over ProcessEngine (core/engine.hpp), run as
// an EngineProcess (core/engine_process.hpp). A round costs O(|A_t| + sum
// of deg(u) over vertices that changed color), and all trace aggregates
// (num_active, num_stable_black, num_unstable, ...) are O(1) incrementally
// maintained reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/color.hpp"
#include "core/engine.hpp"
#include "core/engine_process.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// Definition 4 as an engine policy: transition table + activity predicate.
class TwoStateRule {
 public:
  using Color = Color2;

  // The fair coin phi_t(u).
  explicit TwoStateRule(const CoinOracle& coins) : coins_(coins) {}
  // Black with probability q; with `eager_white` a white active vertex turns
  // black deterministically. Throws std::invalid_argument unless 0 < q < 1
  // (q = 0 or 1 can deadlock).
  TwoStateRule(const CoinOracle& coins, double black_bias, bool eager_white);
  // Black with probability (*biases)[u]. Throws std::invalid_argument on a
  // null table or an entry outside (0, 1); TwoStateMIS checks its length.
  TwoStateRule(const CoinOracle& coins,
               std::shared_ptr<const std::vector<double>> biases);

  int num_colors() const { return 2; }
  int num_counters() const { return 1; }  // counter 0: black neighbors
  Vertex contribution(Color2 c, int) const { return is_black(c) ? 1 : 0; }

  // Black with a black neighbor, or white without one — written as a
  // comparison, so the engine's per-vertex refresh does not branch on the
  // coin-driven color.
  bool active(Color2 c, Heard h) const { return is_black(c) == h.has(0); }
  // For the 2-state rule, the scheduled, active, and violating sets coincide.
  bool scheduled(Color2 c, Heard h) const { return active(c, h); }
  bool violating(Color2 c, Heard h) const { return active(c, h); }
  bool stable_black(Color2 c, Heard h) const { return is_black(c) && !h.has(0); }
  bool in_mis(Color2 c) const { return is_black(c); }

  // Called only for active vertices.
  Color2 transition(Vertex u, Color2 c, Heard, std::int64_t t) const {
    return black_coin(u, c, t) ? Color2::kBlack : Color2::kWhite;
  }

  // Whether the bias source has a coin for every vertex of an n-vertex graph.
  bool covers(Vertex n) const {
    return source_ != Source::kTable ||
           biases_->size() == static_cast<std::size_t>(n);
  }

 private:
  enum class Source : std::uint8_t { kFair, kConstant, kTable };

  // The source is fixed at construction, so the dispatch is a branch that
  // goes the same way on every call of a run.
  bool black_coin(Vertex u, Color2 c, std::int64_t t) const {
    if (source_ == Source::kFair) return coins_.fair_coin(t, u);
    if (source_ == Source::kConstant)
      return (eager_white_ && !is_black(c)) ||
             coins_.bernoulli(t, u, CoinTag::kAblation, black_bias_);
    return coins_.bernoulli(t, u, CoinTag::kPriority,
                            (*biases_)[static_cast<std::size_t>(u)]);
  }

  CoinOracle coins_;
  Source source_ = Source::kFair;
  double black_bias_ = 0.5;
  bool eager_white_ = false;
  // Shared: the engine copies the rule by value; the table is per-trial
  // immutable, so one allocation serves every copy.
  std::shared_ptr<const std::vector<double>> biases_;
};

// The per-vertex bias table of the `priority` workload: p_u = lo + (hi - lo)
// * w_u for a priority weight w_u in [0, 1] — "id" (w = u / (n-1)),
// "degree" (w = deg(u) / max_deg) or "random" (w drawn once per (seed,
// vertex)). Throws std::invalid_argument on an unknown mode or unless
// 0 < lo <= hi < 1.
std::shared_ptr<const std::vector<double>> make_priority_biases(
    const Graph& g, const std::string& mode, double lo, double hi,
    std::uint64_t seed);

class TwoStateMIS final : public EngineProcess<TwoStateRule> {
 public:
  // `init` must have size g.num_vertices(). Throws std::invalid_argument on
  // size mismatch, including a bias table whose size is not
  // g.num_vertices().
  TwoStateMIS(const Graph& g, std::vector<Color2> init, TwoStateRule rule);
  // Definition 4: the fair coin.
  TwoStateMIS(const Graph& g, std::vector<Color2> init, const CoinOracle& coins)
      : TwoStateMIS(g, std::move(init), TwoStateRule(coins)) {}
};

}  // namespace ssmis
