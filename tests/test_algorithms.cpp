#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = gen::path(5);
  const auto dist = bfs_distances(g, 0);
  for (Vertex u = 0; u < 5; ++u) EXPECT_EQ(dist[static_cast<std::size_t>(u)], u);
}

TEST(Bfs, UnreachableIsMinusOne) {
  const Graph g = Graph::from_edges(4, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(bfs_distances(g, 5), std::out_of_range);
}

TEST(Components, CountsComponents) {
  EXPECT_EQ(num_components(gen::path(10)), 1);
  EXPECT_EQ(num_components(gen::disjoint_cliques(5, 4)), 5);
  EXPECT_EQ(num_components(Graph::from_edges(3, {})), 3);
}

TEST(Components, LabelsAreConsistent) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(gen::path(6)).value(), 5);
  EXPECT_EQ(diameter(gen::complete(8)).value(), 1);
  EXPECT_EQ(diameter(gen::cycle(8)).value(), 4);
  EXPECT_EQ(diameter(gen::star(10)).value(), 2);
}

TEST(Diameter, DisconnectedIsNullopt) {
  EXPECT_FALSE(diameter(gen::disjoint_cliques(2, 3)).has_value());
}

TEST(Diameter, TinyGraphs) {
  EXPECT_EQ(diameter(Graph::from_edges(0, {})).value(), 0);
  EXPECT_EQ(diameter(Graph::from_edges(1, {})).value(), 0);
}

TEST(DiameterAtMost2, AgreesWithExactDiameter) {
  const std::vector<Graph> graphs = {
      gen::complete(10), gen::star(12),          gen::path(4),
      gen::cycle(5),     gen::gnp(60, 0.5, 3),   gen::gnp(60, 0.05, 3),
      gen::grid(4, 4),   gen::complete_bipartite(4, 5),
  };
  for (const Graph& g : graphs) {
    const auto d = diameter(g);
    const bool expect = d.has_value() && *d <= 2;
    EXPECT_EQ(has_diameter_at_most_2(g), expect) << g.summary();
  }
}

TEST(DiameterAtMost2, DisconnectedFails) {
  EXPECT_FALSE(has_diameter_at_most_2(gen::disjoint_cliques(2, 4)));
}

TEST(TreeChecks, Classification) {
  EXPECT_TRUE(is_tree(gen::path(7)));
  EXPECT_FALSE(is_tree(gen::cycle(7)));
  EXPECT_FALSE(is_tree(gen::disjoint_cliques(2, 2)));  // forest, not tree
  EXPECT_TRUE(is_forest(gen::disjoint_cliques(2, 2)));
  EXPECT_FALSE(is_forest(gen::cycle(4)));
  EXPECT_TRUE(is_forest(Graph::from_edges(3, {})));
}

TEST(Degeneracy, KnownValues) {
  EXPECT_EQ(degeneracy(gen::path(10)).degeneracy, 1);
  EXPECT_EQ(degeneracy(gen::cycle(10)).degeneracy, 2);
  EXPECT_EQ(degeneracy(gen::complete(7)).degeneracy, 6);
  EXPECT_EQ(degeneracy(gen::star(20)).degeneracy, 1);
  EXPECT_EQ(degeneracy(gen::grid(5, 5)).degeneracy, 2);
}

TEST(Degeneracy, OrderCoversAllVertices) {
  const Graph g = gen::gnp(80, 0.1, 4);
  const auto result = degeneracy(g);
  EXPECT_EQ(result.order.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(Degeneracy, OrderIsValidEliminationOrder) {
  // Along the removal order, each vertex has at most `degeneracy` neighbors
  // among the not-yet-removed vertices.
  const Graph g = gen::gnp(60, 0.15, 9);
  const auto result = degeneracy(g);
  std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex u : result.order) {
    Vertex later = 0;
    for (Vertex v : g.neighbors(u))
      if (!removed[static_cast<std::size_t>(v)]) ++later;
    EXPECT_LE(later, result.degeneracy);
    removed[static_cast<std::size_t>(u)] = 1;
  }
}

TEST(Arboricity, TreeHasArboricityOne) {
  const auto bounds = arboricity_bounds(gen::random_tree(100, 5));
  EXPECT_EQ(bounds.lower, 1);
  EXPECT_EQ(bounds.upper, 1);
}

TEST(Arboricity, CliqueBounds) {
  const auto bounds = arboricity_bounds(gen::complete(9));
  // Arboricity of K_9 is ceil(9/2) = 5; bounds must bracket it.
  EXPECT_LE(bounds.lower, 5);
  EXPECT_GE(bounds.upper, 5);
}

TEST(CommonNeighbors, PairwiseCounts) {
  const Graph g = gen::complete(5);
  EXPECT_EQ(common_neighbors(g, 0, 1), 3);
  const Graph p = gen::path(4);
  EXPECT_EQ(common_neighbors(p, 0, 2), 1);
  EXPECT_EQ(common_neighbors(p, 0, 3), 0);
}

TEST(CommonNeighbors, MaxOverPairs) {
  EXPECT_EQ(max_common_neighbors(gen::complete(6)), 4);
  EXPECT_EQ(max_common_neighbors(gen::path(10)), 1);
  EXPECT_EQ(max_common_neighbors(gen::star(10)), 1);  // two leaves share hub
  EXPECT_EQ(max_common_neighbors(gen::complete_bipartite(3, 7)), 7);
}

TEST(Triangles, KnownCounts) {
  EXPECT_EQ(triangle_count(gen::complete(5)), 10);
  EXPECT_EQ(triangle_count(gen::cycle(5)), 0);
  EXPECT_EQ(triangle_count(gen::cycle(3)), 1);
  EXPECT_EQ(triangle_count(gen::complete_bipartite(4, 4)), 0);
}

}  // namespace
}  // namespace ssmis
