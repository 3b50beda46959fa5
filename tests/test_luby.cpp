#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/luby.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"

namespace ssmis {
namespace {

TEST(Luby, ProducesMisOnSuite) {
  const std::vector<Graph> graphs = {
      gen::complete(30),     gen::path(50),          gen::cycle(41),
      gen::star(20),         gen::gnp(100, 0.08, 3), gen::random_tree(80, 4),
      gen::grid(9, 9),       gen::disjoint_cliques(5, 8),
      Graph::from_edges(4, {}),
  };
  for (const Graph& g : graphs) {
    LubyMIS luby(g, CoinOracle(7));
    const auto rounds = luby.run(10000);
    ASSERT_TRUE(luby.done()) << g.summary();
    EXPECT_TRUE(is_mis(g, luby.mis_set())) << g.summary();
    EXPECT_LT(rounds, 10000);
  }
}

// LubyMIS keeps its own handle on the graph: one built over a Graph that
// goes out of scope first steps exactly like a twin built over a live one.
TEST(Luby, OutlivesTheGraphHandleItWasBuiltOver) {
  const Graph g = gen::gnp(200, 0.03, 5);
  const CoinOracle coins(7);
  LubyMIS twin(g, coins);
  std::optional<LubyMIS> luby;
  {
    const Graph scoped = g;
    luby.emplace(scoped, coins);
  }
  for (int round = 1; !twin.done(); ++round) {
    ASSERT_LE(round, 1000) << "did not finish";
    luby->step();
    twin.step();
    ASSERT_EQ(luby->num_undecided(), twin.num_undecided()) << "round " << round;
  }
  EXPECT_TRUE(luby->done());
  EXPECT_EQ(luby->mis_set(), twin.mis_set());
}

TEST(Luby, EmptyGraphDoneImmediately) {
  const Graph g = Graph::from_edges(0, {});
  LubyMIS luby(g, CoinOracle(1));
  EXPECT_TRUE(luby.done());
  EXPECT_EQ(luby.run(10), 0);
}

TEST(Luby, IsolatedVerticesAllJoin) {
  const Graph g = Graph::from_edges(5, {});
  LubyMIS luby(g, CoinOracle(1));
  luby.run(10);
  EXPECT_EQ(luby.mis_set().size(), 5u);
}

TEST(Luby, LogarithmicRoundsOnGnp) {
  // O(log n) rounds w.h.p.; generous cap 8 log2(n).
  const Graph g = gen::gnp(500, 0.05, 9);
  LubyMIS luby(g, CoinOracle(11));
  const auto rounds = luby.run(10000);
  EXPECT_LE(rounds, 8.0 * std::log2(500.0));
}

TEST(Luby, DeterministicPerSeed) {
  const Graph g = gen::gnp(60, 0.1, 13);
  LubyMIS a(g, CoinOracle(5));
  LubyMIS b(g, CoinOracle(5));
  a.run(1000);
  b.run(1000);
  EXPECT_EQ(a.mis_set(), b.mis_set());
}

TEST(Luby, UndecidedCountMonotone) {
  const Graph g = gen::gnp(80, 0.1, 17);
  LubyMIS luby(g, CoinOracle(19));
  Vertex prev = luby.num_undecided();
  while (!luby.done()) {
    luby.step();
    EXPECT_LE(luby.num_undecided(), prev);
    prev = luby.num_undecided();
  }
}

TEST(Luby, NotSelfStabilizing_AdversarialInitYieldsNonMis) {
  // Mark two adjacent vertices InMis and everything else Out: the algorithm
  // immediately reports "done" with an invalid MIS and never repairs it.
  const Graph g = gen::path(4);
  std::vector<LubyStatus> init(4, LubyStatus::kOut);
  init[0] = LubyStatus::kInMis;
  init[1] = LubyStatus::kInMis;  // adjacent to 0: independence violated
  LubyMIS luby(g, init, CoinOracle(23));
  EXPECT_TRUE(luby.done());
  EXPECT_FALSE(is_mis(g, luby.mis_set()));
}

TEST(Luby, NotSelfStabilizing_CorruptionAfterCompletion) {
  const Graph g = gen::gnp(50, 0.15, 29);
  LubyMIS luby(g, CoinOracle(31));
  luby.run(1000);
  ASSERT_TRUE(is_mis(g, luby.mis_set()));
  // Corrupt: evict one MIS member. Maximality now fails, and further steps
  // change nothing because every vertex is decided.
  const Vertex victim = luby.mis_set().front();
  luby.corrupt_decision(victim, LubyStatus::kOut);
  for (int i = 0; i < 50; ++i) luby.step();
  EXPECT_FALSE(is_mis(g, luby.mis_set()));
}

TEST(Luby, CorruptToUndecidedRestartsLocally) {
  const Graph g = gen::complete(10);
  LubyMIS luby(g, CoinOracle(37));
  luby.run(1000);
  const Vertex member = luby.mis_set().front();
  luby.corrupt_decision(member, LubyStatus::kUndecided);
  EXPECT_FALSE(luby.done());
  luby.run(1000);
  EXPECT_TRUE(luby.done());
}

TEST(Luby, CorruptDecisionValidation) {
  const Graph g = gen::path(3);
  LubyMIS luby(g, CoinOracle(1));
  EXPECT_THROW(luby.corrupt_decision(9, LubyStatus::kOut), std::out_of_range);
}

}  // namespace
}  // namespace ssmis
