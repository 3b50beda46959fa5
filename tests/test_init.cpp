#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/init.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Init, AllWhiteAndAllBlack) {
  const Graph g = gen::path(10);
  const CoinOracle coins(1);
  for (Color2 c : make_init2(g, InitPattern::kAllWhite, coins))
    EXPECT_EQ(c, Color2::kWhite);
  for (Color2 c : make_init2(g, InitPattern::kAllBlack, coins))
    EXPECT_EQ(c, Color2::kBlack);
}

TEST(Init, AlternatingParity) {
  const Graph g = gen::path(6);
  const CoinOracle coins(1);
  const auto init = make_init2(g, InitPattern::kAlternating, coins);
  for (Vertex u = 0; u < 6; ++u)
    EXPECT_EQ(init[static_cast<std::size_t>(u)],
              u % 2 == 0 ? Color2::kBlack : Color2::kWhite);
}

TEST(Init, OneBlackIsVertexZero) {
  const Graph g = gen::path(5);
  const CoinOracle coins(1);
  const auto init = make_init2(g, InitPattern::kOneBlack, coins);
  EXPECT_EQ(init[0], Color2::kBlack);
  for (Vertex u = 1; u < 5; ++u)
    EXPECT_EQ(init[static_cast<std::size_t>(u)], Color2::kWhite);
}

TEST(Init, HighDegreeBlackPicksHub) {
  const Graph g = gen::star(9);
  const CoinOracle coins(1);
  const auto init = make_init2(g, InitPattern::kHighDegreeBlack, coins);
  EXPECT_EQ(init[0], Color2::kBlack);  // hub degree 8 > median 1
  for (Vertex u = 1; u < 9; ++u)
    EXPECT_EQ(init[static_cast<std::size_t>(u)], Color2::kWhite);
}

// The median is taken from the graph passed in, even when a variable that
// held another graph is reused: K_10's vertices all have the median degree
// 9, so none is black, whatever star_10 gave before.
TEST(Init, HighDegreeBlackFollowsReassignedGraph) {
  const CoinOracle coins(1);
  Graph g = gen::star(10);
  (void)make_init2(g, InitPattern::kHighDegreeBlack, coins);
  g = gen::complete(10);
  for (Color2 c : make_init2(g, InitPattern::kHighDegreeBlack, coins))
    EXPECT_EQ(c, Color2::kWhite);
  for (Color3 c : make_init3(g, InitPattern::kHighDegreeBlack, coins))
    EXPECT_EQ(c, Color3::kWhite);
  for (ColorG c : make_init_g(g, InitPattern::kHighDegreeBlack, coins))
    EXPECT_EQ(c, ColorG::kWhite);
}

TEST(Init, UniformRandomRoughlyBalanced) {
  const Graph g = Graph::from_edges(4000, {});
  const CoinOracle coins(99);
  const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
  int black = 0;
  for (Color2 c : init) black += c == Color2::kBlack;
  EXPECT_NEAR(black, 2000, 250);
}

TEST(Init, UniformRandomDeterministicPerSeed) {
  const Graph g = gen::path(50);
  EXPECT_EQ(make_init2(g, InitPattern::kUniformRandom, CoinOracle(5)),
            make_init2(g, InitPattern::kUniformRandom, CoinOracle(5)));
  EXPECT_NE(make_init2(g, InitPattern::kUniformRandom, CoinOracle(5)),
            make_init2(g, InitPattern::kUniformRandom, CoinOracle(6)));
}

TEST(Init, ThreeStateBlackStartsSplitBetweenBlackStates) {
  const Graph g = Graph::from_edges(2000, {});
  const CoinOracle coins(7);
  const auto init = make_init3(g, InitPattern::kAllBlack, coins);
  int black0 = 0, black1 = 0;
  for (Color3 c : init) {
    black0 += c == Color3::kBlack0;
    black1 += c == Color3::kBlack1;
  }
  EXPECT_EQ(black0 + black1, 2000);
  EXPECT_GT(black0, 700);
  EXPECT_GT(black1, 700);
}

TEST(Init, ThreeColorRandomIncludesGray) {
  const Graph g = Graph::from_edges(2000, {});
  const CoinOracle coins(11);
  const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
  int gray = 0;
  for (ColorG c : init) gray += c == ColorG::kGray;
  EXPECT_GT(gray, 100);  // adversarial inits must exercise gray
}

TEST(Init, ThreeColorDeterministicPatternsHaveNoGray) {
  const Graph g = gen::path(20);
  const CoinOracle coins(13);
  for (InitPattern pattern : {InitPattern::kAllWhite, InitPattern::kAllBlack,
                              InitPattern::kAlternating, InitPattern::kOneBlack}) {
    for (ColorG c : make_init_g(g, pattern, coins)) EXPECT_NE(c, ColorG::kGray);
  }
}

TEST(Init, PatternNamesAreDistinct) {
  std::set<std::string> names;
  for (InitPattern pattern : all_init_patterns()) names.insert(to_string(pattern));
  EXPECT_EQ(names.size(), all_init_patterns().size());
}

TEST(Init, ColorToStringCoversAll) {
  EXPECT_EQ(to_string(Color2::kBlack), "black");
  EXPECT_EQ(to_string(Color2::kWhite), "white");
  EXPECT_EQ(to_string(Color3::kBlack0), "black0");
  EXPECT_EQ(to_string(Color3::kBlack1), "black1");
  EXPECT_EQ(to_string(Color3::kWhite), "white");
  EXPECT_EQ(to_string(ColorG::kGray), "gray");
  EXPECT_EQ(to_string(ColorG::kBlack), "black");
  EXPECT_EQ(to_string(ColorG::kWhite), "white");
}

}  // namespace
}  // namespace ssmis
