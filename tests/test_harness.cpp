#include <gtest/gtest.h>

#include <set>

#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "harness/suites.hpp"

namespace ssmis {
namespace {

TEST(Suites, SmallSuiteIsDiverseAndValid) {
  const auto suite = small_suite(2024);
  EXPECT_GE(suite.size(), 15u);
  std::set<std::string> names;
  for (const auto& cell : suite) {
    EXPECT_GT(cell.graph.num_vertices(), 0) << cell.name;
    EXPECT_TRUE(names.insert(cell.name).second) << "duplicate name " << cell.name;
    // Every suite graph admits a valid greedy MIS (sanity of construction).
    EXPECT_TRUE(is_mis(cell.graph, greedy_mis(cell.graph))) << cell.name;
  }
}

TEST(Suites, SmallSuiteDeterministicPerSeed) {
  const auto a = small_suite(7);
  const auto b = small_suite(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].graph, b[i].graph);
}

TEST(Suites, CornerSuiteCoversDegenerateShapes) {
  const auto corners = corner_suite();
  bool has_empty = false, has_singleton = false, has_disconnected = false;
  for (const auto& cell : corners) {
    if (cell.graph.num_vertices() == 0) has_empty = true;
    if (cell.graph.num_vertices() == 1) has_singleton = true;
    if (cell.graph.num_vertices() > 1 && num_components(cell.graph) > 1)
      has_disconnected = true;
  }
  EXPECT_TRUE(has_empty);
  EXPECT_TRUE(has_singleton);
  EXPECT_TRUE(has_disconnected);
}

TEST(Suites, SuiteContainsPaperFamilies) {
  // The experiment suite must cover the families the paper's theorems name.
  const auto suite = small_suite(1);
  auto contains = [&suite](const std::string& prefix) {
    for (const auto& cell : suite)
      if (cell.name.rfind(prefix, 0) == 0) return true;
    return false;
  };
  EXPECT_TRUE(contains("K"));         // cliques (Theorem 8)
  EXPECT_TRUE(contains("tree"));      // bounded arboricity (Theorem 11)
  EXPECT_TRUE(contains("gnp"));       // G(n,p) (Theorems 19/32)
  EXPECT_TRUE(contains("cliques"));   // disjoint cliques (Remark 9)
  EXPECT_TRUE(contains("regular"));   // bounded degree (Theorem 12)
}

}  // namespace
}  // namespace ssmis
