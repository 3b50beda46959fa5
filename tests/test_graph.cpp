#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace ssmis {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, FromEdgesBasic) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, DuplicateEdgesCollapse) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, SelfLoopsDropped) {
  const Graph g = Graph::from_edges(3, {{0, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, NeighborsSortedAndDeduplicated) {
  const Graph g = Graph::from_edges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}, {4, 2}});
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
}

TEST(Graph, AdjacencyIsSymmetric) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 5}, {3, 4}, {1, 5}});
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : g.neighbors(u)) {
      EXPECT_TRUE(g.has_edge(v, u)) << u << "-" << v;
    }
  }
}

TEST(Graph, OutOfRangeEdgeThrows) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{-1, 0}}), std::invalid_argument);
}

TEST(Graph, EdgeListRoundTrip) {
  const std::vector<Edge> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.edge_list(), edges);
}

TEST(Graph, EqualityOperator) {
  const Graph a = Graph::from_edges(3, {{0, 1}});
  const Graph b = Graph::from_edges(3, {{1, 0}});
  const Graph c = Graph::from_edges(3, {{0, 2}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Graph, AverageDegree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}});
  const std::string s = g.summary();
  EXPECT_NE(s.find("n=4"), std::string::npos);
  EXPECT_NE(s.find("m=2"), std::string::npos);
}

// neighbor_sums must equal per-row sums on both storages, in vertex order,
// including a row spanning several of the plain sweep's chunks (the hub
// of a 600-leaf star) and runs of empty rows at the start, in the middle
// and at the end.
TEST(Graph, NeighborSumsMatchPerRowSums) {
  std::vector<Edge> edges;
  for (Vertex v = 2; v < 602; ++v) edges.emplace_back(1, v);
  for (Vertex v = 700; v < 900; ++v) edges.emplace_back(v, v + 1);
  const Graph mixed = Graph::from_edges(1000, edges);
  const Graph gnp = gen::gnp(3000, 0.004, 5);
  const auto value = [](Vertex v) { return static_cast<std::int64_t>(v % 7) - 3; };
  for (const Graph& g : {mixed, Graph::compress(mixed), gnp, Graph::compress(gnp),
                         Graph::from_edges(5, {}), Graph()}) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<std::int64_t> want(n, 0);
    NeighborScratch scratch;
    for (Vertex u = 0; u < g.num_vertices(); ++u)
      for (const Vertex v : g.neighbors(u, scratch)) want[static_cast<std::size_t>(u)] += value(v);
    std::vector<std::int64_t> got;
    g.neighbor_sums(value, [&](Vertex u, std::int64_t sum) {
      ASSERT_EQ(static_cast<std::size_t>(u), got.size()) << g.summary();
      got.push_back(sum);
    });
    EXPECT_EQ(got, want) << g.summary();
  }
}

// Two 32-bit lanes packed into one std::uint64_t value come out of one
// sweep as the two per-row sums, on both storages. The lane values are
// large enough that the low lane carries into the high one and the
// running total wraps past 2^64 on the G(n,p) graph, while every row's
// lane sums stay below 2^31 (the hub of the 600-leaf star included).
TEST(Graph, NeighborSumsPackTwoLanes) {
  std::vector<Edge> edges;
  for (Vertex v = 2; v < 602; ++v) edges.emplace_back(1, v);
  for (Vertex v = 700; v < 900; ++v) edges.emplace_back(v, v + 1);
  const Graph mixed = Graph::from_edges(1000, edges);
  const Graph gnp = gen::gnp(3000, 0.004, 5);
  constexpr std::uint64_t kBase = std::uint64_t{1} << 21;
  const auto lo = [](Vertex v) { return kBase + static_cast<std::uint64_t>(v % 11); };
  const auto hi = [](Vertex v) { return kBase + static_cast<std::uint64_t>(v % 7); };
  const auto packed = [&](Vertex v) { return lo(v) | hi(v) << 32; };
  // The high lanes of all endpoints add up past 2^32: the packed running
  // total passes 2^64.
  std::uint64_t gnp_hi_total = 0;
  for (Vertex u = 0; u < gnp.num_vertices(); ++u)
    for (const Vertex v : gnp.neighbors(u)) gnp_hi_total += hi(v);
  ASSERT_GT(gnp_hi_total, std::uint64_t{1} << 32) << "the running total must wrap";
  for (const Graph& g : {mixed, Graph::compress(mixed), gnp, Graph::compress(gnp),
                         Graph::from_edges(5, {}), Graph()}) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<std::uint64_t> want_lo(n, 0), want_hi(n, 0);
    NeighborScratch scratch;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (const Vertex v : g.neighbors(u, scratch)) {
        want_lo[static_cast<std::size_t>(u)] += lo(v);
        want_hi[static_cast<std::size_t>(u)] += hi(v);
      }
      ASSERT_LT(want_lo[static_cast<std::size_t>(u)], std::uint64_t{1} << 31);
      ASSERT_LT(want_hi[static_cast<std::size_t>(u)], std::uint64_t{1} << 31);
    }
    std::vector<std::uint64_t> got_lo, got_hi;
    g.neighbor_sums(packed, [&](Vertex u, std::uint64_t sum) {
      ASSERT_EQ(static_cast<std::size_t>(u), got_lo.size()) << g.summary();
      got_lo.push_back(sum & 0xffffffffu);
      got_hi.push_back(sum >> 32);
    });
    EXPECT_EQ(got_lo, want_lo) << g.summary();
    EXPECT_EQ(got_hi, want_hi) << g.summary();
  }
}

TEST(GraphBuilder, NegativeSizeThrows) {
  EXPECT_THROW(GraphBuilder(-1), std::invalid_argument);
}

TEST(GraphBuilder, NonDestructiveBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  b.add_edge(1, 2);
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(g2.num_edges(), 2);
}

TEST(GraphBuilder, RecordsEdgeCountBeforeDedup) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  EXPECT_EQ(b.num_recorded_edges(), 2u);
  EXPECT_EQ(b.build().num_edges(), 1);
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const Graph back = io::from_edge_list_string(io::to_edge_list_string(g));
  EXPECT_EQ(g, back);
}

TEST(GraphIo, CommentsAndBlankLinesSkipped) {
  const Graph g = io::from_edge_list_string("# header comment\n3 1\n\n# mid\n0 2\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(GraphIo, MalformedHeaderThrows) {
  EXPECT_THROW(io::from_edge_list_string("x y\n"), std::runtime_error);
  EXPECT_THROW(io::from_edge_list_string(""), std::runtime_error);
}

TEST(GraphIo, EdgeCountMismatchThrows) {
  EXPECT_THROW(io::from_edge_list_string("3 2\n0 1\n"), std::runtime_error);
}

TEST(GraphIo, DotContainsHighlights) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  std::ostringstream oss;
  io::write_dot(oss, g, {1});
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("graph G"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=black"), std::string::npos);
}

}  // namespace
}  // namespace ssmis
