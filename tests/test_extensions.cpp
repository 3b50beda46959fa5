// Tests for the extension features beyond the paper's core reproduction:
// exact MIS solvers and the no-collision-detection beeping variant.
#include <gtest/gtest.h>

#include "core/init.hpp"
#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"

namespace ssmis {
namespace {

TEST(ExactMis, KnownOptima) {
  EXPECT_EQ(exact_max_independent_set(gen::complete(7)).size(), 1u);
  EXPECT_EQ(exact_max_independent_set(gen::path(7)).size(), 4u);
  EXPECT_EQ(exact_max_independent_set(gen::cycle(8)).size(), 4u);
  EXPECT_EQ(exact_max_independent_set(gen::cycle(9)).size(), 4u);
  EXPECT_EQ(exact_max_independent_set(gen::complete_bipartite(3, 8)).size(), 8u);
  EXPECT_EQ(exact_max_independent_set(gen::star(12)).size(), 11u);
  EXPECT_EQ(exact_max_independent_set(Graph::from_edges(5, {})).size(), 5u);
}

TEST(ExactMis, ResultIsIndependentAndDominatesGreedy) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen::gnp(30, 0.2, seed);
    const auto opt = exact_max_independent_set(g);
    EXPECT_TRUE(is_independent_set(g, opt));
    EXPECT_GE(opt.size(), greedy_mis(g).size());
  }
}

TEST(ExactMis, TooLargeThrows) {
  EXPECT_THROW(exact_max_independent_set(gen::path(100)), std::invalid_argument);
}

TEST(IndependentDomination, KnownValues) {
  EXPECT_EQ(independent_domination_number(gen::complete(9)), 1);
  EXPECT_EQ(independent_domination_number(gen::star(10)), 1);  // the hub
  EXPECT_EQ(independent_domination_number(gen::path(7)), 3);
  EXPECT_EQ(independent_domination_number(gen::cycle(9)), 3);
  EXPECT_EQ(independent_domination_number(Graph::from_edges(0, {})), 0);
  EXPECT_EQ(independent_domination_number(Graph::from_edges(3, {})), 3);
}

TEST(IndependentDomination, LowerBoundsEveryProcessMis) {
  const Graph g = gen::gnp(20, 0.25, 9);
  const Vertex i_min = independent_domination_number(g);
  const auto alpha = exact_max_independent_set(g).size();
  const auto greedy = greedy_mis(g).size();
  EXPECT_LE(static_cast<std::size_t>(i_min), greedy);
  EXPECT_LE(greedy, alpha);
}

TEST(NoCollisionDetection, TwoBlackNeighborsStuckForever) {
  // The 2-state algorithm REQUIRES sender collision detection (Section 1):
  // without it, two adjacent beeping (black) nodes hear nothing, conclude
  // they are stable, and never resolve the conflict.
  const Graph g = gen::complete(2);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, {1, 1}, CoinOracle(3),
                     {.sender_collision_detection = false});
  for (int i = 0; i < 1000; ++i) {
    net.step();
    // The violation count reads the true configuration, not what the
    // deafened beepers hear: the stuck network never reports stabilized.
    ASSERT_FALSE(net.stabilized()) << "round " << i + 1;
  }
  EXPECT_EQ(net.color(0), TwoStateBeepAutomaton::kBlack);
  EXPECT_EQ(net.color(1), TwoStateBeepAutomaton::kBlack);
  EXPECT_FALSE(is_mis(g, net.black_set()));
}

TEST(NoCollisionDetection, WithCdSameStartResolves) {
  const Graph g = gen::complete(2);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, {1, 1}, CoinOracle(3),
                     {.sender_collision_detection = true});
  for (int i = 0; i < 1000 && !is_mis(g, net.black_set()); ++i) net.step();
  EXPECT_TRUE(is_mis(g, net.black_set()));
}

TEST(NoCollisionDetection, ListenersUnaffected) {
  // Listeners hear the same bit in both variants; only beeping nodes differ.
  const Graph g = gen::path(3);
  const TwoStateBeepAutomaton automaton;
  // 0 black, 1 white, 2 white: vertex 1 hears the beep in both variants and
  // stays white; vertex 2 hears nothing and resamples identically (same
  // oracle word).
  BeepingNetwork with_cd(g, automaton, {1, 0, 0}, CoinOracle(5),
                         {.sender_collision_detection = true});
  BeepingNetwork without_cd(g, automaton, {1, 0, 0}, CoinOracle(5),
                            {.sender_collision_detection = false});
  with_cd.step();
  without_cd.step();
  EXPECT_EQ(with_cd.color(1), without_cd.color(1));
  EXPECT_EQ(with_cd.color(2), without_cd.color(2));
}

}  // namespace
}  // namespace ssmis
