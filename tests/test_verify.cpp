#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Verify, IndependenceBasic) {
  const Graph g = gen::path(4);  // 0-1-2-3
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{0, 3}));
  EXPECT_FALSE(is_independent_set(g, std::vector<Vertex>{0, 1}));
  EXPECT_TRUE(is_independent_set(g, std::vector<Vertex>{}));
}

TEST(Verify, MaximalityBasic) {
  const Graph g = gen::path(4);
  EXPECT_TRUE(is_maximal(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_maximal(g, std::vector<Vertex>{1, 3}));
  EXPECT_FALSE(is_maximal(g, std::vector<Vertex>{0}));  // 2, 3 uncovered
  EXPECT_FALSE(is_maximal(g, std::vector<Vertex>{}));
}

TEST(Verify, MisOnPath) {
  const Graph g = gen::path(4);
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 2}));
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{1, 3}));
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 3}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1, 3}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0}));
}

TEST(Verify, MisOnClique) {
  const Graph g = gen::complete(5);
  for (Vertex u = 0; u < 5; ++u)
    EXPECT_TRUE(is_mis(g, std::vector<Vertex>{u}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{}));
}

TEST(Verify, EmptyGraphEmptySetIsMis) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{}));
}

TEST(Verify, IsolatedVerticesMustAllBeMembers) {
  const Graph g = Graph::from_edges(3, {});
  EXPECT_TRUE(is_mis(g, std::vector<Vertex>{0, 1, 2}));
  EXPECT_FALSE(is_mis(g, std::vector<Vertex>{0, 1}));
}

TEST(Verify, MaskSizeMismatchThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(is_independent_set(g, std::vector<char>{1, 0}), std::invalid_argument);
  EXPECT_THROW(is_maximal(g, std::vector<char>{1, 0, 0, 0}), std::invalid_argument);
}

TEST(Verify, MemberOutOfRangeThrows) {
  const Graph g = gen::path(3);
  EXPECT_THROW(is_mis(g, std::vector<Vertex>{5}), std::out_of_range);
}

TEST(Verify, FindViolationDescribesIndependence) {
  const Graph g = gen::path(3);
  const auto v = find_mis_violation(g, members_to_mask(3, {0, 1}));
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("independence"), std::string::npos);
}

TEST(Verify, FindViolationDescribesMaximality) {
  const Graph g = gen::path(3);
  const auto v = find_mis_violation(g, members_to_mask(3, {0}));
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("maximality"), std::string::npos);
}

TEST(Verify, FindViolationNulloptForMis) {
  const Graph g = gen::path(3);
  EXPECT_FALSE(find_mis_violation(g, members_to_mask(3, {1})).has_value());
}

// Families with and without isolated vertices, and the 0-vertex graph.
std::vector<Graph> check_graphs() {
  return {
      gen::complete(10),          gen::path(17),
      gen::cycle(12),             gen::star(9),
      gen::gnp(100, 0.1, 1),      gen::random_tree(64, 2),
      gen::grid(6, 7),            gen::disjoint_cliques(4, 6),
      Graph::from_edges(5, {}),   Graph(),
  };
}

TEST(Verify, GreedyMisIsAlwaysMis) {
  for (const Graph& g : check_graphs()) {
    EXPECT_TRUE(is_mis(g, greedy_mis(g))) << g.summary();
  }
}

// Candidate outputs around greedy_mis: the empty set, every vertex, greedy
// itself, greedy plus a neighbor of a member, greedy minus a member, and
// greedy with a member listed twice.
std::vector<std::vector<Vertex>> candidate_sets(const Graph& g) {
  std::vector<Vertex> all;
  for (Vertex u = 0; u < g.num_vertices(); ++u) all.push_back(u);
  const std::vector<Vertex> greedy = greedy_mis(g);
  std::vector<std::vector<Vertex>> sets = {{}, all, greedy};
  for (const Vertex u : greedy) {
    if (g.degree(u) == 0) continue;
    std::vector<Vertex> plus = greedy;
    g.for_each_neighbor(u, [&](Vertex v) {
      plus.push_back(v);
      return false;
    });
    sets.push_back(plus);
    break;
  }
  if (!greedy.empty()) {
    sets.emplace_back(greedy.begin() + 1, greedy.end());
    std::vector<Vertex> twice = greedy;
    twice.push_back(greedy[greedy.size() / 2]);
    sets.push_back(twice);
  }
  return sets;
}

// is_mis (both overloads) and verify_mis_output agree with
// find_mis_violation on every candidate, and verify_mis_output's message
// is find_mis_violation's description.
TEST(Verify, OnePassCheckAgreesWithFindMisViolation) {
  for (const Graph& g : check_graphs()) {
    for (const std::vector<Vertex>& set : candidate_sets(g)) {
      const std::vector<char> mask = members_to_mask(g.num_vertices(), set);
      const std::optional<std::string> violation = find_mis_violation(g, mask);
      const std::string where = g.summary() + " (" + g.storage_mode() + "), |set| " +
                                std::to_string(set.size());
      EXPECT_EQ(is_mis(g, set), !violation.has_value()) << where;
      EXPECT_EQ(is_mis(g, mask), !violation.has_value()) << where;
      EXPECT_EQ(is_mis(g, mask), is_independent_set(g, mask) && is_maximal(g, mask))
          << where;
      try {
        verify_mis_output(g, set);
        EXPECT_FALSE(violation.has_value()) << where;
      } catch (const std::logic_error& e) {
        ASSERT_TRUE(violation.has_value()) << where << ": " << e.what();
        EXPECT_EQ(std::string(e.what()), "process stabilized on a non-MIS: " + *violation)
            << where;
      }
    }
  }
}

// The messages a failed check throws, byte for byte.
TEST(Verify, VerifyMisOutputMessages) {
  const Graph g = gen::path(4);  // 0-1-2-3
  const auto message = [&g](const std::vector<Vertex>& claimed) -> std::string {
    try {
      verify_mis_output(g, claimed);
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "valid";
  };
  EXPECT_EQ(message({0, 2}), "valid");
  EXPECT_EQ(message({0, 1, 3}),
            "process stabilized on a non-MIS: independence violated: members 0 and 1 "
            "are adjacent");
  EXPECT_EQ(message({0}),
            "process stabilized on a non-MIS: maximality violated: vertex 2 has no "
            "member neighbor");
  EXPECT_EQ(message({3, 3}),
            "process stabilized on a non-MIS: maximality violated: vertex 0 has no "
            "member neighbor");
  EXPECT_THROW(verify_mis_output(g, {4}), std::out_of_range);
}

TEST(Verify, GreedyMisOnCliqueIsSingleton) {
  EXPECT_EQ(greedy_mis(gen::complete(7)).size(), 1u);
}

TEST(Verify, GreedyMisOnStarIsHubOrLeaves) {
  // Greedy from vertex 0 (the hub) picks the hub only.
  EXPECT_EQ(greedy_mis(gen::star(10)), (std::vector<Vertex>{0}));
}

}  // namespace
}  // namespace ssmis
