#include "core/phase_clock.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/narrow.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {

namespace {

// Rows up to this long take the fixed-trip loop in step_range. On a sparse
// graph most do (82% at avg-deg 8); of the lengths 8 to 16 timed on
// G(2^15, avg-deg 8), 10 and 11 were fastest.
constexpr std::size_t kRowUnroll = 10;

// Runs before any arithmetic on d: d + 3 must neither be 0 (a modulus in
// with_random_levels) nor overflow, and d + 2 must fit a byte level.
void check_d(int d) {
  if (d < 1 || d > PhaseClock::kMaxD)
    throw std::invalid_argument("PhaseClock: d must be in [1, " +
                                std::to_string(PhaseClock::kMaxD) + "], got " +
                                std::to_string(d));
}

}  // namespace

PhaseClock::PhaseClock(const Graph& g, int d, const std::vector<int>& init_levels,
                       const CoinOracle& coins, std::uint64_t zeta_num,
                       unsigned zeta_log2_den)
    : graph_(&g),
      coins_(coins),
      d_(d),
      zeta_num_(zeta_num),
      zeta_log2_den_(zeta_log2_den),
      width_(narrow_cast<int>(std::clamp<std::int64_t>(
          (g.num_vertices() + 2 * g.num_edges()) / kGrain, 1, ThreadPool::host_width()))),
      // Four chunks a thread let the pool's one-at-a-time hand-out absorb
      // uneven rows and a worker that wakes late.
      chunks_(width_ == 1 ? 1 : 4 * width_),
      levels_(static_cast<std::size_t>(g.num_vertices())),
      next_(levels_.size()) {
  check_d(d);
  if (zeta_log2_den == 0 || zeta_log2_den > 63 ||
      zeta_num == 0 || zeta_num >= (static_cast<std::uint64_t>(1) << zeta_log2_den))
    throw std::invalid_argument("PhaseClock: zeta must be in (0,1)");
  if (init_levels.size() != levels_.size())
    throw std::invalid_argument("PhaseClock: init size != num_vertices");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (init_levels[i] < 0 || init_levels[i] > top_level())
      throw std::invalid_argument("PhaseClock: init level out of range");
    levels_[i] = narrow_cast<std::uint8_t>(init_levels[i]);
  }
}

PhaseClock PhaseClock::with_random_levels(const Graph& g, int d,
                                          const CoinOracle& coins,
                                          std::uint64_t zeta_num,
                                          unsigned zeta_log2_den) {
  check_d(d);
  std::vector<int> levels(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    levels[static_cast<std::size_t>(u)] = narrow_cast<int>(
        coins.word(-1, u, CoinTag::kSwitchBit) % static_cast<std::uint64_t>(d + 3));
  }
  return PhaseClock(g, d, levels, coins, zeta_num, zeta_log2_den);
}

double PhaseClock::zeta() const {
  return static_cast<double>(zeta_num_) /
         std::pow(2.0, static_cast<double>(zeta_log2_den_));
}

std::vector<int> PhaseClock::levels() const {
  return {levels_.begin(), levels_.end()};
}

Vertex PhaseClock::chunk_begin(int c) const {
  return narrow_cast<Vertex>(std::int64_t{graph_->num_vertices()} * c / chunks_);
}

void PhaseClock::step_range(std::int64_t t, Vertex begin,
                            std::span<std::uint8_t> out) const {
  const std::uint8_t top = narrow_cast<std::uint8_t>(top_level());
  const std::uint8_t* levels = levels_.data();
  NeighborScratch scratch;  // row decode buffer, compressed storage only
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Vertex u = begin + narrow_cast<Vertex>(i);
    const std::uint8_t lvl = levels[static_cast<std::size_t>(u)];
    if (lvl == 0) {
      out[i] = top;
    } else if (lvl == top) {
      // b = 0 with probability zeta; b = 1 keeps the vertex at top. No
      // neighbour exceeds top, so a b = 0 vertex counts down from it.
      const bool b_is_zero =
          coins_.dyadic_bernoulli(t, u, CoinTag::kSwitchBit, zeta_num_, zeta_log2_den_);
      out[i] = b_is_zero ? narrow_cast<std::uint8_t>(top - 1) : top;
    } else {
      const std::span<const Vertex> row = graph_->neighbors(u, scratch);
      const std::size_t deg = row.size();
      std::uint8_t max_level = lvl;
      if (deg >= 1 && deg <= kRowUnroll) {
        // A fixed trip count whatever the degree: slots past the row's end
        // re-read its last neighbour, which cannot change a max. A few
        // extra cached loads replace the loop-exit misprediction that a
        // degree-long loop pays on nearly every row.
        for (std::size_t k = 0; k < kRowUnroll; ++k) {
          const Vertex v = row[std::min(k, deg - 1)];
          max_level = std::max(max_level, levels[static_cast<std::size_t>(v)]);
        }
      } else {
        for (const Vertex v : row)
          max_level = std::max(max_level, levels[static_cast<std::size_t>(v)]);
      }
      out[i] = narrow_cast<std::uint8_t>(max_level - 1);
    }
  }
}

void PhaseClock::step() {
  const std::int64_t t = round_ + 1;
  const std::span<std::uint8_t> next(next_);
  ThreadPool::shared().parallel_for(chunks_, width_, [&](int c) {
    const Vertex begin = chunk_begin(c);
    step_range(t, begin,
               next.subspan(static_cast<std::size_t>(begin),
                            static_cast<std::size_t>(chunk_begin(c + 1) - begin)));
  });
  levels_.swap(next_);
  round_ = t;
}

void PhaseClock::advance(std::int64_t rounds) {
  for (std::int64_t i = 0; i < rounds; ++i) step();
}

void PhaseClock::force_level(Vertex u, int lvl) {
  if (u < 0 || u >= graph_->num_vertices())
    throw std::out_of_range("force_level: vertex out of range");
  if (lvl < 0 || lvl > top_level())
    throw std::invalid_argument("force_level: level out of range");
  levels_[static_cast<std::size_t>(u)] = narrow_cast<std::uint8_t>(lvl);
}

}  // namespace ssmis
