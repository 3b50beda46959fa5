// Randomized phase clock, the core mechanism of the logarithmic switch
// (Definition 26), generalized to a diameter parameter D as in Emek-Keren's
// RandPhase [PODC 2021].
//
// Each vertex holds a level in {0, ..., D+2} (D+3 states; the paper's switch
// is the D = 3 instance with 6 states). Per round, with top = D+2:
//
//   if level = top: draw a bit b with P[b = 0] = zeta
//   if (level = top and b = 1) or level = 0:  level' = top
//   else:                                     level' = max over N+(u) of level, minus 1
//
// The paper's insight (Section 5.1) is to run the D = 3 clock on graphs of
// *arbitrary unknown* diameter: when diam(G) <= 2 the clock synchronizes and
// yields both S2 and S3; on larger-diameter graphs only the upper bound S1
// survives — which is exactly what the 3-color analysis needs.
//
// Cost and parallelism: this kernel is dense. A round visits every vertex
// and scans the row of each one strictly between level 0 and the top, an
// O(n + m) sweep, although only 2.9-3.4% of vertices are scheduled per
// round on G(n, 8/n): the rest hear exactly one level above their own and
// keep it (ROADMAP item 2 runs the clock as an engine rule that steps only
// the scheduled ones). Levels are bytes — 2 B/vertex with the next-round
// buffer — and a round is computed in vertex ranges. Each vertex reads
// only the previous round's levels and its own counter-based coin, and
// writes only its own slot of the next buffer, so the result is
// bit-identical at any width. The fan-out is fixed at construction:
// min(host width, (n + 2m) / kGrain) threads on ThreadPool::shared(), four
// chunks each. A graph below 2 * kGrain work units (such as G(2^15,
// avg-deg 8)), a 1-wide host, or a call from inside a pool task (a
// TrialBatch trial) steps inline; `--threads` does not cap the fan-out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class PhaseClock {
 public:
  // Largest supported D: the top level D + 2 must fit a byte.
  static constexpr int kMaxD = 253;
  // Work units (vertices plus adjacency entries, n + 2m overall) each
  // thread must get per round before a round fans out: 0.5-1 ms of sweep on
  // one core, so the pool's per-round wake-up and join, which take tens of
  // microseconds on a VM and vary with the host's other load, stay a few
  // percent of it.
  static constexpr std::int64_t kGrain = std::int64_t{1} << 20;

  // zeta = zeta_num / 2^zeta_log2_den (the paper uses 1/2^7 = 4/a, a = 512).
  // Throws std::invalid_argument for d outside [1, kMaxD], malformed zeta, or
  // init levels outside [0, d+2].
  PhaseClock(const Graph& g, int d, const std::vector<int>& init_levels,
             const CoinOracle& coins, std::uint64_t zeta_num = 1,
             unsigned zeta_log2_den = 7);

  // Uniformly random initial levels drawn from the oracle (self-stabilizing
  // processes must cope with arbitrary levels). Same validation as above.
  static PhaseClock with_random_levels(const Graph& g, int d, const CoinOracle& coins,
                                       std::uint64_t zeta_num = 1,
                                       unsigned zeta_log2_den = 7);

  void step();
  // Replays `rounds` consecutive step()s (no-op for rounds <= 0). The clock
  // trajectory is a pure function of (levels, round, coins), so a deferred
  // batch replay is bit-identical to having stepped every round — the
  // lazy-switch hook of the 3-color fast-forward path.
  void advance(std::int64_t rounds);
  std::int64_t round() const { return round_; }

  int d() const { return d_; }
  int top_level() const { return d_ + 2; }
  int num_states() const { return d_ + 3; }
  double zeta() const;

  int level(Vertex u) const { return levels_[static_cast<std::size_t>(u)]; }
  std::vector<int> levels() const;

  // Test/fault hook.
  void force_level(Vertex u, int level);

 private:
  // Round t's levels of the vertices [begin, begin + out.size()), computed
  // from levels_ into `out`. Reads shared state only.
  void step_range(std::int64_t t, Vertex begin, std::span<std::uint8_t> out) const;
  Vertex chunk_begin(int c) const;

  const Graph* graph_;
  CoinOracle coins_;
  int d_;
  std::uint64_t zeta_num_;
  unsigned zeta_log2_den_;
  int width_;   // threads a round fans out over
  int chunks_;
  std::vector<std::uint8_t> levels_;
  std::vector<std::uint8_t> next_;
  std::int64_t round_ = 0;
};

}  // namespace ssmis
