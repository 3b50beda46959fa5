#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_builder.hpp"
#include "rng/xoshiro256.hpp"

namespace ssmis {
namespace {

// Replays a fixed edge list (the canonical replayable source).
auto list_source(const std::vector<Edge>& edges) {
  return [&edges](auto&& emit) {
    for (const auto& [u, v] : edges) emit(u, v);
  };
}

TEST(CsrBuilder, EmptyAndEdgeless) {
  const Graph empty = CsrBuilder::from_source(0, [](auto&&) {});
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty.num_edges(), 0);

  const Graph isolated = CsrBuilder::from_source(5, [](auto&&) {});
  EXPECT_EQ(isolated.num_vertices(), 5);
  EXPECT_EQ(isolated.num_edges(), 0);
  for (Vertex u = 0; u < 5; ++u) EXPECT_EQ(isolated.degree(u), 0);
}

TEST(CsrBuilder, NegativeVertexCountThrows) {
  EXPECT_THROW(CsrBuilder::from_source(-1, [](auto&&) {}), std::invalid_argument);
}

TEST(CsrBuilder, BasicConstruction) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const Graph g = CsrBuilder::from_source(4, list_source(edges));
  EXPECT_EQ(g.num_edges(), 4);
  for (Vertex u = 0; u < 4; ++u) EXPECT_EQ(g.degree(u), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(CsrBuilder, DropsSelfLoopsAndDeduplicates) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const Graph g = CsrBuilder::from_source(3, list_source(edges));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(CsrBuilder, OutOfRangeThrows) {
  const std::vector<Edge> bad = {{0, 3}};
  EXPECT_THROW(CsrBuilder::from_source(3, list_source(bad)), std::invalid_argument);
  const std::vector<Edge> negative = {{-1, 0}};
  EXPECT_THROW(CsrBuilder::from_source(3, list_source(negative)),
               std::invalid_argument);
}

TEST(CsrBuilder, NonReplayableSourceThrows) {
  // Emits one edge on the first pass, two on the second.
  int pass = 0;
  auto broken = [&pass](auto&& emit) {
    ++pass;
    emit(0, 1);
    if (pass == 2) emit(1, 2);
  };
  EXPECT_THROW(CsrBuilder::from_source(3, broken), std::logic_error);
}

TEST(CsrBuilder, DivergentEqualCountSourceThrows) {
  // Same edge COUNT but different edges per pass: the multiset stream hash
  // must catch the divergence rather than hand back a silently corrupt CSR.
  int pass = 0;
  auto broken = [&pass](auto&& emit) {
    ++pass;
    emit(0, 1);
    if (pass == 1)
      emit(0, 2);
    else
      emit(2, 3);
  };
  EXPECT_THROW(CsrBuilder::from_source(4, broken), std::logic_error);
}

TEST(CsrBuilder, EndpointOrientationIsIrrelevantAcrossPasses) {
  // Pass 2 may emit the same undirected edges with flipped endpoints; the
  // multiset hash and placement are orientation-independent.
  int pass = 0;
  auto flipping = [&pass](auto&& emit) {
    ++pass;
    if (pass == 1) {
      emit(0, 1);
      emit(2, 3);
    } else {
      emit(1, 0);
      emit(3, 2);
    }
  };
  const Graph g = CsrBuilder::from_source(4, flipping);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

// The rows a std::set of normalized pairs gives: self-loops dropped,
// duplicates and reversed duplicates merged, every row ascending.
std::vector<std::vector<Vertex>> reference_rows(Vertex n, const std::vector<Edge>& edges) {
  std::set<Edge> pairs;
  for (const auto& [u, v] : edges)
    if (u != v) pairs.emplace(std::min(u, v), std::max(u, v));
  std::vector<std::vector<Vertex>> rows(static_cast<std::size_t>(n));
  for (const auto& [u, v] : pairs) {
    rows[static_cast<std::size_t>(u)].push_back(v);
    rows[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());
  return rows;
}

std::vector<std::vector<Vertex>> rows_of(const Graph& g) {
  std::vector<std::vector<Vertex>> rows;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto row = g.neighbors(u);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

TEST(CsrBuilder, MatchesSetReferenceOnRandomMultisets) {
  // Random edge multisets with duplicates, reversed duplicates, and
  // self-loops: the streaming two-pass build, and GraphBuilder, which
  // replays its buffered edges through it, must both give the rows of a
  // std::set of the normalized pairs.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Xoshiro256 rng(seed);
    const Vertex n = 2 + static_cast<Vertex>(rng.next_below(60));
    const int count = static_cast<int>(rng.next_below(300));
    std::vector<Edge> edges;
    for (int i = 0; i < count; ++i) {
      const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      edges.emplace_back(u, v);
      if (rng.next_bool()) edges.emplace_back(v, u);  // reversed duplicate
    }
    const auto want = reference_rows(n, edges);
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    EXPECT_EQ(rows_of(b.build()), want) << "GraphBuilder, seed " << seed << " n " << n;
    EXPECT_EQ(rows_of(CsrBuilder::from_source(n, list_source(edges))), want)
        << "from_source, seed " << seed << " n " << n;
  }
}

TEST(CsrBuilder, RowsSortedDeduplicated) {
  const std::vector<Edge> edges = {{2, 4}, {2, 0}, {2, 3}, {2, 1}, {4, 2}, {0, 2}};
  const Graph g = CsrBuilder::from_source(5, list_source(edges));
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
}

// A random column-ordered stream: column v holds each u < v with a
// per-column probability, so some columns are empty, and one column takes
// every u < v.
std::vector<Edge> random_columns(Vertex n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Vertex dense =
      n > 0 ? static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n))) : 0;
  std::vector<Edge> edges;
  for (Vertex v = 1; v < n; ++v) {
    const double p = v == dense ? 1.0 : rng.next_bool() ? 0.0 : rng.next_double() * 0.3;
    for (Vertex u = 0; u < v; ++u)
      if (rng.next_double() < p) edges.emplace_back(u, v);
  }
  return edges;
}

TEST(CsrBuilder, ColumnSourceMatchesTwoPassBuild) {
  // The one-pass layout must equal the replaying build over the same edges,
  // for n = 0 through 9 and larger n, whether the edge capacity is exact,
  // short (the array regrows) or generous. The last three seeds span
  // several of the layout's cursor blocks of 2^10 rows: n = 1024 ends on a
  // block boundary, n = 1025 opens a one-row block, n = 3000 ends mid-block.
  const Vertex multi_block[] = {1024, 1025, 3000};
  for (std::uint64_t seed = 0; seed < 43; ++seed) {
    const Vertex n = seed >= 40 ? multi_block[seed - 40]
                     : static_cast<Vertex>(seed % 4 == 0 ? seed / 4 : 2 + seed * 7 % 90);
    const std::vector<Edge> edges = random_columns(n, seed);
    const Graph replayed = CsrBuilder::from_source(n, list_source(edges));
    const auto m = static_cast<std::int64_t>(edges.size());
    for (const std::int64_t capacity : {m, std::int64_t{0}, m / 2, 3 * m + 10}) {
      const Graph one_pass =
          CsrBuilder::from_column_source(n, capacity, list_source(edges));
      EXPECT_EQ(one_pass, replayed)
          << "seed " << seed << " n " << n << " capacity " << capacity;
    }
  }
}

TEST(CsrBuilder, ColumnSourceOrderViolationsThrow) {
  const auto build = [](Vertex n, const std::vector<Edge>& edges) {
    return CsrBuilder::from_column_source(n, 8, list_source(edges));
  };
  // A repeated pair, a column going backwards, a row going backwards within
  // a column, and u >= v each break the order.
  EXPECT_THROW(build(3, {{0, 1}, {0, 1}}), std::logic_error);
  EXPECT_THROW(build(3, {{0, 2}, {0, 1}}), std::logic_error);
  EXPECT_THROW(build(3, {{1, 2}, {0, 2}}), std::logic_error);
  EXPECT_THROW(build(3, {{1, 0}}), std::logic_error);
  EXPECT_THROW(build(3, {{1, 1}}), std::logic_error);
  // Out-of-range endpoints and a negative n are invalid arguments.
  EXPECT_THROW(build(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(build(3, {{-1, 1}}), std::invalid_argument);
  EXPECT_THROW(build(3, {{0, 1}, {1, 5}}), std::invalid_argument);
  EXPECT_THROW(build(-1, {}), std::invalid_argument);
}

TEST(GraphHandle, CopiesShareStorageAndCompareEqual) {
  const Graph a = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph b = a;  // shallow handle copy
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.neighbors(1).data(), b.neighbors(1).data());  // shared CSR arrays
  EXPECT_FALSE(a.is_mapped());
}

}  // namespace
}  // namespace ssmis
