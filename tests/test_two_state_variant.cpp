#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(TwoStateVariant, Validation) {
  const Graph g = gen::path(3);
  const std::vector<Color2> init(3, Color2::kWhite);
  const CoinOracle coins(1);
  EXPECT_THROW(TwoStateMIS(g, {Color2::kWhite}, TwoStateRule(coins, 0.5, false)),
               std::invalid_argument);
  EXPECT_THROW(TwoStateRule(coins, 0.0, false), std::invalid_argument);
  EXPECT_THROW(TwoStateRule(coins, 1.0, false), std::invalid_argument);
  EXPECT_THROW(TwoStateRule(coins, std::nan(""), false), std::invalid_argument);
  EXPECT_NO_THROW(TwoStateMIS(g, init, TwoStateRule(coins, 0.5, true)));
}

TEST(TwoStateVariant, ActivePredicateMatchesBaseProcess) {
  const Graph g = gen::path(4);
  const std::vector<Color2> init = {Color2::kBlack, Color2::kBlack, Color2::kWhite,
                                    Color2::kWhite};
  const TwoStateMIS v(g, init, TwoStateRule(CoinOracle(1), 0.5, false));
  const TwoStateMIS base(g, init, CoinOracle(1));
  for (Vertex u = 0; u < 4; ++u) EXPECT_EQ(v.engine().active(u), base.engine().active(u));
}

TEST(TwoStateVariant, StabilizesToMisForAllBiases) {
  const Graph g = gen::gnp(50, 0.1, 7);
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const CoinOracle coins(11);
    TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins),
                  TwoStateRule(coins, q, false));
    const RunResult r = run_until_stabilized(p, 200000);
    ASSERT_TRUE(r.stabilized) << "q=" << q;
    EXPECT_TRUE(is_mis(g, p.black_set())) << "q=" << q;
  }
}

TEST(TwoStateVariant, EagerWhiteStabilizesToMis) {
  const Graph g = gen::gnp(50, 0.1, 13);
  const CoinOracle coins(17);
  TwoStateMIS p(g, make_init2(g, InitPattern::kAllWhite, coins),
                TwoStateRule(coins, 0.5, true));
  const RunResult r = run_until_stabilized(p, 200000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.black_set()));
}

TEST(TwoStateVariant, EagerWhiteIsolatedVertexJoinsInOneRound) {
  const Graph g = Graph::from_edges(1, {});
  TwoStateMIS p(g, {Color2::kWhite}, TwoStateRule(CoinOracle(3), 0.5, true));
  p.step();
  EXPECT_TRUE(p.black(0));
  EXPECT_TRUE(p.stabilized());
}

TEST(TwoStateVariant, EagerWhiteK2LivelocksSlower) {
  // With eager white both vertices of K_2 jump white->black together, then
  // resolve via the black coin: the process still stabilizes (unlike the
  // fully deterministic rule).
  const Graph g = gen::complete(2);
  TwoStateMIS p(g, {Color2::kWhite, Color2::kWhite},
                TwoStateRule(CoinOracle(5), 0.5, true));
  const RunResult r = run_until_stabilized(p, 100000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_EQ(p.num_black(), 1);
}

TEST(TwoStateVariant, StableConfigurationUntouched) {
  const Graph g = gen::path(4);
  const std::vector<Color2> mis = {Color2::kBlack, Color2::kWhite, Color2::kBlack,
                                   Color2::kWhite};
  TwoStateMIS p(g, mis, TwoStateRule(CoinOracle(7), 0.3, true));
  EXPECT_TRUE(p.stabilized());
  for (int i = 0; i < 30; ++i) p.step();
  EXPECT_EQ(p.colors(), mis);
}

TEST(TwoStateVariant, BiasSkewsBlackMass) {
  // On an edgeless graph every vertex is active white initially; after one
  // round the black fraction approximates q.
  const Graph g = Graph::from_edges(2000, {});
  for (double q : {0.2, 0.8}) {
    const CoinOracle coins(23);
    TwoStateMIS p(g, std::vector<Color2>(2000, Color2::kWhite),
                  TwoStateRule(coins, q, false));
    p.step();
    EXPECT_NEAR(static_cast<double>(p.num_black()) / 2000.0, q, 0.05) << "q=" << q;
  }
}

TEST(TwoStateVariant, CountsConsistentWithSets) {
  const Graph g = gen::gnp(40, 0.15, 31);
  const CoinOracle coins(37);
  TwoStateMIS p(g, make_init2(g, InitPattern::kAlternating, coins),
                TwoStateRule(coins, 0.6, false));
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(p.num_black()), p.black_set().size());
    Vertex active = 0;
    for (Vertex u = 0; u < 40; ++u)
      if (p.engine().active(u)) ++active;
    EXPECT_EQ(p.num_active(), active);
    p.step();
  }
}

TEST(TwoStateVariant, HalfBiasBehavesLikeDefinitionFour) {
  // q = 1/2 without eager white is distributionally Definition 4 (different
  // coin stream than TwoStateMIS, so traces differ, but it must stabilize
  // with comparable speed on the clique).
  const Graph g = gen::complete(64);
  double variant_total = 0;
  double base_total = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const CoinOracle coins(100 + static_cast<std::uint64_t>(trial));
    TwoStateMIS v(g, make_init2(g, InitPattern::kUniformRandom, coins),
                  TwoStateRule(coins, 0.5, false));
    TwoStateMIS b(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
    variant_total += static_cast<double>(run_until_stabilized(v, 100000).rounds);
    base_total += static_cast<double>(run_until_stabilized(b, 100000).rounds);
  }
  EXPECT_LT(variant_total / trials, 4.0 * (base_total / trials) + 10.0);
  EXPECT_LT(base_total / trials, 4.0 * (variant_total / trials) + 10.0);
}

}  // namespace
}  // namespace ssmis
