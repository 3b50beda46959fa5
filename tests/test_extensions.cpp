// Tests for the extension features beyond the paper's core reproduction:
// exact MIS solvers, extra graph algorithms, the no-collision-detection
// beeping variant, and the randomized sequential daemon.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/init.hpp"
#include "core/sequential.hpp"
#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"

namespace ssmis {
namespace {

TEST(Complement, InvertsAdjacency) {
  const Graph g = gen::path(5);
  const Graph c = complement(g);
  EXPECT_EQ(g.num_edges() + c.num_edges(), 5 * 4 / 2);
  for (Vertex u = 0; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v)
      EXPECT_NE(g.has_edge(u, v), c.has_edge(u, v)) << u << "," << v;
}

TEST(Complement, CompleteBecomesEmpty) {
  EXPECT_EQ(complement(gen::complete(8)).num_edges(), 0);
  EXPECT_EQ(complement(Graph::from_edges(6, {})).num_edges(), 15);
}

TEST(Complement, TooLargeThrows) {
  EXPECT_THROW(complement(gen::path(5000)), std::invalid_argument);
}

TEST(Bipartite, Classification) {
  EXPECT_TRUE(is_bipartite(gen::path(10)));
  EXPECT_TRUE(is_bipartite(gen::cycle(8)));
  EXPECT_FALSE(is_bipartite(gen::cycle(9)));
  EXPECT_TRUE(is_bipartite(gen::complete_bipartite(4, 5)));
  EXPECT_FALSE(is_bipartite(gen::complete(3)));
  EXPECT_TRUE(is_bipartite(gen::random_tree(50, 3)));
  EXPECT_TRUE(is_bipartite(gen::hypercube(5)));
  EXPECT_TRUE(is_bipartite(Graph::from_edges(4, {})));
}

TEST(Bipartite, PartitionIsProper) {
  const Graph g = gen::grid(6, 7);
  const auto part = bipartition(g);
  ASSERT_TRUE(part.has_value());
  for (const auto& [u, v] : g.edge_list())
    EXPECT_NE((*part)[static_cast<std::size_t>(u)], (*part)[static_cast<std::size_t>(v)]);
}

TEST(CoreNumbers, MatchKnownStructures) {
  const auto path_cores = core_numbers(gen::path(10));
  for (Vertex c : path_cores) EXPECT_EQ(c, 1);
  const auto clique_cores = core_numbers(gen::complete(6));
  for (Vertex c : clique_cores) EXPECT_EQ(c, 5);
  const auto cycle_cores = core_numbers(gen::cycle(7));
  for (Vertex c : cycle_cores) EXPECT_EQ(c, 2);
}

TEST(CoreNumbers, MaxEqualsDegeneracy) {
  const Graph g = gen::gnp(80, 0.1, 5);
  const auto cores = core_numbers(g);
  const Vertex max_core = *std::max_element(cores.begin(), cores.end());
  EXPECT_EQ(max_core, degeneracy(g).degeneracy);
}

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
                     /*sender_collision_detection=*/false);
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
                     /*sender_collision_detection=*/true);
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
  BeepingNetwork with_cd(g, automaton, {1, 0, 0}, CoinOracle(5), true);
  BeepingNetwork without_cd(g, automaton, {1, 0, 0}, CoinOracle(5), false);
  with_cd.step();
  without_cd.step();
  EXPECT_EQ(with_cd.color(1), without_cd.color(1));
  EXPECT_EQ(with_cd.color(2), without_cd.color(2));
}

TEST(RandomizedSequential, StabilizesUnderAllSchedulers) {
  const Graph g = gen::gnp(60, 0.1, 11);
  const CoinOracle coins(13);
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<RoundRobinScheduler>());
  schedulers.push_back(std::make_unique<RandomScheduler>(17));
  schedulers.push_back(std::make_unique<MaxDegreeScheduler>(g));
  schedulers.push_back(std::make_unique<LowestIdScheduler>());
  for (auto& sched : schedulers) {
    SequentialMIS p(g, make_init2(g, InitPattern::kAllBlack, coins));
    const auto result = p.run_randomized(*sched, coins, 1000000);
    ASSERT_TRUE(result.stabilized) << sched->name();
    EXPECT_TRUE(is_mis(g, p.black_set())) << sched->name();
  }
}

TEST(RandomizedSequential, MoveRequiresEnabled) {
  const Graph g = gen::path(3);
  SequentialMIS p(g, {Color2::kBlack, Color2::kWhite, Color2::kBlack});
  EXPECT_THROW(p.move_randomized(0, 0, CoinOracle(1)), std::logic_error);
}

TEST(RandomizedSequential, StillAtMostTwoColorChangesPerVertex) {
  // The <= 2 color-changes bound survives randomization: a vertex's second
  // change is white -> black (no black neighbors), after which no neighbor
  // can ever turn black, so it never changes again. What randomization adds
  // is *dithering*: scheduled activations that redraw the current color, so
  // activations can far exceed actual changes.
  const Graph g = gen::complete(8);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const CoinOracle coins(seed);
    SequentialMIS p(g, std::vector<Color2>(8, Color2::kBlack));
    RandomScheduler sched(seed);
    const auto result = p.run_randomized(sched, coins, 100000);
    ASSERT_TRUE(result.stabilized);
    EXPECT_LE(result.max_moves_per_vertex, 2) << "seed " << seed;
    // total_moves counts scheduled activations; changes are at most 2n.
    std::int64_t changes = 0;
    for (Vertex u = 0; u < 8; ++u) changes += p.moves_of(u);
    EXPECT_LE(changes, 2 * 8);
    EXPECT_GE(result.total_moves, changes);
  }
}

TEST(RandomizedSequential, ActivationsExceedChangesSomewhere) {
  // Dithering must actually occur over enough seeds: some activation redraws
  // the current color.
  bool saw_dither = false;
  const Graph g = gen::complete(8);
  for (std::uint64_t seed = 0; seed < 40 && !saw_dither; ++seed) {
    const CoinOracle coins(seed);
    SequentialMIS p(g, std::vector<Color2>(8, Color2::kBlack));
    RandomScheduler sched(seed);
    const auto result = p.run_randomized(sched, coins, 100000);
    std::int64_t changes = 0;
    for (Vertex u = 0; u < 8; ++u) changes += p.moves_of(u);
    if (result.total_moves > changes) saw_dither = true;
  }
  EXPECT_TRUE(saw_dither);
}

}  // namespace
}  // namespace ssmis
