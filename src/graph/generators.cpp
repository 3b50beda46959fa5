#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_builder.hpp"
#include "graph/geometric_skip.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "support/narrow.hpp"

namespace ssmis {
namespace gen {

namespace {

void require(bool cond, const char* message) {
  if (!cond) throw std::invalid_argument(message);
}

// Emits G(n,p) via skip-sampling over the pairs (u < v) in increasing (v, u)
// order: the gap between successive present edges is geometric(p), drawn a
// block at a time through SkipBlock (geometric_skip.hpp), which equals
// geometric_skip on every draw. That is the order
// CsrBuilder::from_column_source takes in one pass; the stream is
// deterministic in (n, p, seed). Requires 0 < p < 1.
template <typename Emit>
void emit_gnp(Vertex n, double p, std::uint64_t seed, Emit&& emit) {
  Xoshiro256 rng(seed);
  const double log_1mp = std::log1p(-p);
  SkipBlock block;
  std::int64_t v = 1;
  std::int64_t u = -1;
  while (v < n) {
    block.fill(rng);
    for (int i = 0; i < kSkipBlock && v < n; ++i) {
      u += 1 + block.skip(i, log_1mp);
      // Past the first few columns a skip crosses at most one column
      // boundary almost always: take that step without a branch, and loop
      // for the rest.
      const std::int64_t next_column = u >= v;
      u -= next_column * v;
      v += next_column;
      while (u >= v && v < n) {
        u -= v;
        ++v;
      }
      if (v < n) emit(static_cast<Vertex>(u), static_cast<Vertex>(v));
    }
  }
}

// Packs a normalized pair (u < v) into one hash key.
std::uint64_t edge_key(Vertex n, Vertex u, Vertex v) {
  return static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(n) +
         static_cast<std::uint64_t>(v);
}

// Draws distinct uniform edges into `chosen` until it holds `want` of them,
// emitting each accepted edge. The draw/reject sequence (self-loops, then
// duplicates) is identical to the historical std::set sampler, so sparse
// G(n,m) streams are unchanged for fixed seeds — only the heap-heavy
// ordered-set bookkeeping is gone.
template <typename Emit>
void sample_distinct_edges(Vertex n, std::int64_t want, std::uint64_t seed,
                           std::unordered_set<std::uint64_t>& chosen,
                           Emit&& emit) {
  Xoshiro256 rng(seed);
  chosen.clear();
  chosen.reserve(static_cast<std::size_t>(want) * 2);
  while (static_cast<std::int64_t>(chosen.size()) < want) {
    Vertex u = narrow_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    Vertex v = narrow_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (chosen.insert(edge_key(n, u, v)).second) emit(u, v);
  }
}

// Emits a uniform random labeled tree (Pruefer decoding) on n >= 1 vertices.
// Deterministic in (n, seed): replayable for the two-pass CSR build.
template <typename Emit>
void emit_random_tree(Vertex n, std::uint64_t seed, Emit&& emit) {
  if (n <= 1) return;
  if (n == 2) {
    emit(0, 1);
    return;
  }
  Xoshiro256 rng(seed);
  std::vector<Vertex> pruefer(static_cast<std::size_t>(n) - 2);
  for (auto& x : pruefer)
    x = narrow_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
  std::vector<Vertex> remaining_degree(static_cast<std::size_t>(n), 1);
  for (Vertex x : pruefer) ++remaining_degree[static_cast<std::size_t>(x)];

  std::set<Vertex> leaves;
  for (Vertex u = 0; u < n; ++u)
    if (remaining_degree[static_cast<std::size_t>(u)] == 1) leaves.insert(u);
  for (Vertex x : pruefer) {
    const Vertex leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    emit(leaf, x);
    if (--remaining_degree[static_cast<std::size_t>(x)] == 1) leaves.insert(x);
  }
  const Vertex a = *leaves.begin();
  const Vertex c = *std::next(leaves.begin());
  emit(a, c);
}

}  // namespace

Graph complete(Vertex n) {
  require(n >= 0, "complete: n must be >= 0");
  return CsrBuilder::from_source(n, [n](auto&& emit) {
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = u + 1; v < n; ++v) emit(u, v);
  });
}

Graph path(Vertex n) {
  require(n >= 0, "path: n must be >= 0");
  return CsrBuilder::from_source(n, [n](auto&& emit) {
    for (Vertex u = 0; u + 1 < n; ++u) emit(u, u + 1);
  });
}

Graph cycle(Vertex n) {
  require(n >= 0, "cycle: n must be >= 0");
  return CsrBuilder::from_source(n, [n](auto&& emit) {
    for (Vertex u = 0; u + 1 < n; ++u) emit(u, u + 1);
    if (n >= 3) emit(n - 1, 0);
  });
}

Graph star(Vertex n) {
  require(n >= 0, "star: n must be >= 0");
  return CsrBuilder::from_source(n, [n](auto&& emit) {
    for (Vertex u = 1; u < n; ++u) emit(0, u);
  });
}

Graph complete_bipartite(Vertex a, Vertex b_size) {
  require(a >= 0 && b_size >= 0, "complete_bipartite: sizes must be >= 0");
  return CsrBuilder::from_source(a + b_size, [a, b_size](auto&& emit) {
    for (Vertex u = 0; u < a; ++u)
      for (Vertex v = a; v < a + b_size; ++v) emit(u, v);
  });
}

Graph disjoint_cliques(Vertex count, Vertex size) {
  require(count >= 0 && size >= 0, "disjoint_cliques: sizes must be >= 0");
  return CsrBuilder::from_source(count * size, [count, size](auto&& emit) {
    for (Vertex c = 0; c < count; ++c) {
      const Vertex base = c * size;
      for (Vertex i = 0; i < size; ++i)
        for (Vertex j = i + 1; j < size; ++j) emit(base + i, base + j);
    }
  });
}

Graph grid(Vertex rows, Vertex cols) {
  require(rows >= 0 && cols >= 0, "grid: dimensions must be >= 0");
  return CsrBuilder::from_source(rows * cols, [rows, cols](auto&& emit) {
    auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
    for (Vertex r = 0; r < rows; ++r) {
      for (Vertex c = 0; c < cols; ++c) {
        if (c + 1 < cols) emit(id(r, c), id(r, c + 1));
        if (r + 1 < rows) emit(id(r, c), id(r + 1, c));
      }
    }
  });
}

Graph torus(Vertex rows, Vertex cols) {
  require(rows >= 0 && cols >= 0, "torus: dimensions must be >= 0");
  return CsrBuilder::from_source(rows * cols, [rows, cols](auto&& emit) {
    auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
    for (Vertex r = 0; r < rows; ++r) {
      for (Vertex c = 0; c < cols; ++c) {
        emit(id(r, c), id(r, (c + 1) % cols));
        emit(id(r, c), id((r + 1) % rows, c));
      }
    }
  });
}

Graph hypercube(int dim) {
  require(dim >= 0 && dim < 25, "hypercube: dim must be in [0, 25)");
  const Vertex n = static_cast<Vertex>(1) << dim;
  return CsrBuilder::from_source(n, [n, dim](auto&& emit) {
    for (Vertex u = 0; u < n; ++u) {
      for (int bit = 0; bit < dim; ++bit) {
        const Vertex v = u ^ (static_cast<Vertex>(1) << bit);
        if (u < v) emit(u, v);
      }
    }
  });
}

Graph binary_tree(Vertex n) {
  require(n >= 0, "binary_tree: n must be >= 0");
  return CsrBuilder::from_source(n, [n](auto&& emit) {
    for (Vertex u = 1; u < n; ++u) emit(u, (u - 1) / 2);
  });
}

Graph caterpillar(Vertex spine, Vertex legs) {
  require(spine >= 0 && legs >= 0, "caterpillar: sizes must be >= 0");
  const Vertex n = spine + spine * legs;
  return CsrBuilder::from_source(n, [spine, legs](auto&& emit) {
    for (Vertex s = 0; s + 1 < spine; ++s) emit(s, s + 1);
    for (Vertex s = 0; s < spine; ++s)
      for (Vertex l = 0; l < legs; ++l) emit(s, spine + s * legs + l);
  });
}

Graph barbell(Vertex k) {
  require(k >= 1, "barbell: clique size must be >= 1");
  return CsrBuilder::from_source(2 * k, [k](auto&& emit) {
    for (Vertex i = 0; i < k; ++i) {
      for (Vertex j = i + 1; j < k; ++j) {
        emit(i, j);
        emit(k + i, k + j);
      }
    }
    emit(k - 1, k);  // the bridge
  });
}

Graph gnp(Vertex n, double p, std::uint64_t seed) {
  require(n >= 0, "gnp: n must be >= 0");
  require(p >= 0.0 && p <= 1.0, "gnp: p must be in [0,1]");
  if (p >= 1.0) return complete(n);
  if (p <= 0.0) return CsrBuilder::from_source(n, [](auto&&) {});
  // The edge count is Binomial(pairs, p): eight standard deviations over its
  // mean, capped at every pair, leaves the adjacency array room to spare.
  const double pairs = static_cast<double>(n) * (static_cast<double>(n) - 1) / 2;
  const double mean = p * pairs;
  const double edge_capacity = std::min(pairs, std::ceil(mean + 8 * std::sqrt(mean) + 16));
  return CsrBuilder::from_column_source(
      n, static_cast<std::int64_t>(edge_capacity),
      [n, p, seed](auto&& emit) { emit_gnp(n, p, seed, emit); });
}

Graph gnm(Vertex n, std::int64_t m, std::uint64_t seed) {
  require(n >= 0, "gnm: n must be >= 0");
  const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  require(m >= 0 && m <= max_m, "gnm: m out of range");
  std::unordered_set<std::uint64_t> scratch;
  if (2 * m <= max_m) {
    // Sparse side: hash-set rejection sampling, O(m) expected.
    return CsrBuilder::from_source(n, [&](auto&& emit) {
      sample_distinct_edges(n, m, seed, scratch, emit);
    });
  }
  // Dense side: rejection sampling degenerates (coupon collector) as
  // m -> max_m, so sample the *complement* — max_m - m <= max_m/2 distinct
  // non-edges — and emit every pair not in it. O(n^2) = O(max_m) <= O(2m)
  // total work, independent of how close m is to max_m.
  return CsrBuilder::from_source(n, [&](auto&& emit) {
    sample_distinct_edges(n, max_m - m, seed, scratch, [](Vertex, Vertex) {});
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = u + 1; v < n; ++v)
        if (scratch.count(edge_key(n, u, v)) == 0) emit(u, v);
  });
}

Graph random_tree(Vertex n, std::uint64_t seed) {
  require(n >= 0, "random_tree: n must be >= 0");
  return CsrBuilder::from_source(
      n, [n, seed](auto&& emit) { emit_random_tree(n, seed, emit); });
}

Graph random_recursive_tree(Vertex n, std::uint64_t seed) {
  require(n >= 0, "random_recursive_tree: n must be >= 0");
  return CsrBuilder::from_source(n, [n, seed](auto&& emit) {
    Xoshiro256 rng(seed);
    for (Vertex u = 1; u < n; ++u) {
      const Vertex parent =
          narrow_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(u)));
      emit(u, parent);
    }
  });
}

Graph forest_union(Vertex n, int k, std::uint64_t seed) {
  require(k >= 1, "forest_union: k must be >= 1");
  require(n >= 0, "forest_union: n must be >= 0");
  // Per-tree seeds come from the SplitMix64 stream of the *avalanched* base
  // seed. The historical `seed + i * golden` scheme made forest_union(n,k,s)
  // and forest_union(n,k,s+golden) share k-1 identical trees — and seeding
  // the stream with the raw base seed would reproduce the same shift overlap
  // (SplitMix64 itself advances by the same golden increment), so the base
  // seed is mixed once before it enters the stream.
  return CsrBuilder::from_source(n, [n, k, seed](auto&& emit) {
    SplitMix64 seeder(splitmix64_mix(seed));
    for (int i = 0; i < k; ++i) emit_random_tree(n, seeder.next(), emit);
  });
}

Graph random_regular(Vertex n, int d, std::uint64_t seed) {
  require(n >= 0 && d >= 0, "random_regular: n, d must be >= 0");
  require(static_cast<std::int64_t>(n) * d % 2 == 0, "random_regular: n*d must be even");
  require(d < n || n == 0, "random_regular: need d < n");
  // Configuration model: pair up n*d stubs uniformly; drop loops/multi-edges
  // (the CSR build deduplicates the multi-edges).
  return CsrBuilder::from_source(n, [n, d, seed](auto&& emit) {
    Xoshiro256 rng(seed);
    std::vector<Vertex> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
    for (Vertex u = 0; u < n; ++u)
      for (int i = 0; i < d; ++i) stubs.push_back(u);
    // Fisher-Yates shuffle, then pair consecutive stubs.
    for (std::size_t i = stubs.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
      std::swap(stubs[i - 1], stubs[j]);
    }
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
      emit(stubs[i], stubs[i + 1]);  // builder drops the loops, dedups the rest
  });
}

Graph random_geometric(Vertex n, double radius, std::uint64_t seed) {
  require(n >= 0, "random_geometric: n must be >= 0");
  require(radius >= 0.0, "random_geometric: radius must be >= 0");
  Xoshiro256 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u) {
    x[static_cast<std::size_t>(u)] = rng.next_double();
    y[static_cast<std::size_t>(u)] = rng.next_double();
  }
  // Bucket grid with cell side >= radius: candidates are the 3x3 neighborhood.
  // Resolution is capped at sqrt(n) cells per side — finer grids cost memory
  // without pruning more pairs (and radius -> 0 would otherwise explode).
  const int max_cells =
      std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  const int cells = std::clamp(
      static_cast<int>(std::floor(1.0 / std::max(radius, 1e-9))), 1, max_cells);
  std::vector<std::vector<Vertex>> buckets(static_cast<std::size_t>(cells) * cells);
  auto bucket_of = [&](Vertex u) {
    int cx = std::min(cells - 1, static_cast<int>(x[static_cast<std::size_t>(u)] * cells));
    int cy = std::min(cells - 1, static_cast<int>(y[static_cast<std::size_t>(u)] * cells));
    return static_cast<std::size_t>(cx) * static_cast<std::size_t>(cells) +
           static_cast<std::size_t>(cy);
  };
  for (Vertex u = 0; u < n; ++u) buckets[bucket_of(u)].push_back(u);

  const double r2 = radius * radius;
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    const std::size_t bu = bucket_of(u);
    const int cx = narrow_cast<int>(bu / static_cast<std::size_t>(cells));
    const int cy = narrow_cast<int>(bu % static_cast<std::size_t>(cells));
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        const int nx = cx + dx;
        const int ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        for (Vertex v : buckets[static_cast<std::size_t>(nx) * cells +
                                static_cast<std::size_t>(ny)]) {
          if (v <= u) continue;
          const double ddx = x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
          const double ddy = y[static_cast<std::size_t>(u)] - y[static_cast<std::size_t>(v)];
          if (ddx * ddx + ddy * ddy <= r2) b.add_edge(u, v);
        }
      }
    }
  }
  return b.build();
}

Graph small_world(Vertex n, int k, double beta, std::uint64_t seed) {
  require(n >= 0 && k >= 0, "small_world: n, k must be >= 0");
  require(beta >= 0.0 && beta <= 1.0, "small_world: beta must be in [0,1]");
  require(2 * k < n || n == 0, "small_world: need 2k < n");
  Xoshiro256 rng(seed);
  std::set<Edge> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (int j = 1; j <= k; ++j) {
      Vertex v = static_cast<Vertex>((u + j) % n);
      Vertex a = u, c = v;
      if (a > c) std::swap(a, c);
      edges.emplace(a, c);
    }
  }
  std::vector<Edge> rewired;
  for (const Edge& e : edges) {
    if (rng.next_double() < beta) {
      // Rewire: keep endpoint u, pick a fresh non-neighbor target.
      Vertex u = e.first;
      for (int attempt = 0; attempt < 64; ++attempt) {
        Vertex w = narrow_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (w == u) continue;
        Vertex a = u, c = w;
        if (a > c) std::swap(a, c);
        if (edges.count({a, c}) > 0) continue;
        rewired.emplace_back(a, c);
        break;
      }
    } else {
      rewired.push_back(e);
    }
  }
  GraphBuilder b(n);
  for (const auto& [u, v] : rewired) b.add_edge(u, v);
  return b.build();
}

}  // namespace gen
}  // namespace ssmis
