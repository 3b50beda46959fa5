// The sequential algorithm of Shukla-Rosenkrantz-Ravi: the 2-state rule
// under a central daemon, run as a DaemonMIS. With the flip
// (TwoStateRule::flip()) a step is a move; with the fair coin a step may
// redraw the current color.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "central_daemons.hpp"
#include "core/daemon.hpp"
#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/suites.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

constexpr Color2 kB = Color2::kBlack;
constexpr Color2 kW = Color2::kWhite;

// Steps `p` until it stabilizes or has taken `max_steps` steps; returns each
// vertex's number of color changes, read by diffing colors() between steps.
std::vector<int> step_counting_changes(DaemonMIS& p, std::int64_t max_steps) {
  std::vector<int> changes(p.colors().size(), 0);
  std::vector<Color2> before = p.colors();
  while (!p.stabilized() && p.round() < max_steps) {
    p.step();
    for (std::size_t u = 0; u < before.size(); ++u)
      if (p.colors()[u] != before[u]) ++changes[u];
    before = p.colors();
  }
  return changes;
}

// Runs the sequential algorithm (the flip under a central daemon) from
// `init` under kCentralPolicies[policy] to stabilization; returns its moves
// and final colors.
std::pair<std::int64_t, std::vector<Color2>> run_sequential(const Graph& g,
                                                            std::vector<Color2> init,
                                                            int policy) {
  DaemonMIS p(g, std::move(init), central_daemon(kCentralPolicies[policy], g),
              TwoStateRule::flip());
  const RunResult r = run_until_stabilized(p, 4 * g.num_vertices() + 8);
  EXPECT_TRUE(r.stabilized) << g.summary() << " " << kCentralPolicies[policy];
  return {r.rounds, p.colors()};
}

TEST(Sequential, Goldens) {
  // Per small-suite graph and deterministic central policy: the moves summed
  // over the six init patterns, and an FNV-1a fold of each pattern's move
  // count and final colors. No coin is drawn, so every trajectory is fixed.
  // Captured with the hand-rolled sequential stepper that DaemonMIS and the
  // flip replaced.
  struct Golden {
    const char* graph;
    std::int64_t moves[3];
    std::uint64_t fingerprint[3];
  };
  const std::vector<Golden> goldens = {
      {"K32", {62, 62, 62},
       {0x8f78cdaf86f9d591ULL, 0x8f78cdaf86f9d591ULL, 0x8f78cdaf86f9d591ULL}},
      {"path256", {877, 873, 877},
       {0x572ce3a78027aa63ULL, 0xf6d0fcc61e612a97ULL, 0x572ce3a78027aa63ULL}},
      {"cycle255", {872, 872, 872},
       {0x15e1ca330e559a46ULL, 0x15e1ca330e559a46ULL, 0x15e1ca330e559a46ULL}},
      {"star128", {133, 133, 133},
       {0xdb3c97d13fd33be0ULL, 0xdb3c97d13fd33be0ULL, 0xdb3c97d13fd33be0ULL}},
      {"grid16x16", {1135, 1108, 1149},
       {0xf60cbad249823237ULL, 0x1d4b79e4605827f7ULL, 0xb323f59d0315664fULL}},
      {"torus8x8", {285, 282, 282},
       {0x1036d7e97a103867ULL, 0xafb4781fa3715b95ULL, 0xafb4781fa3715b95ULL}},
      {"hypercube7", {598, 588, 588},
       {0x88cec6a3fca4bc1bULL, 0xed790c58753b1c21ULL, 0xed790c58753b1c21ULL}},
      {"tree256", {778, 646, 777},
       {0x2ee74a9d6fcc4cb8ULL, 0x466447bf0e0c126eULL, 0x4eab8d69aa6eecf0ULL}},
      {"binary255", {655, 735, 659},
       {0x53771c6a0b494796ULL, 0x003239277ae54812ULL, 0xe4b4f91ebfb38bb6ULL}},
      {"caterpillar", {442, 391, 393},
       {0xe9c79933b3f07944ULL, 0x47148c809b09d992ULL, 0x5fe3e9456b824654ULL}},
      {"cliques8x16", {254, 254, 254},
       {0xdda467df313fe631ULL, 0xdda467df313fe631ULL, 0xdda467df313fe631ULL}},
      {"gnp256-sparse", {832, 702, 826},
       {0x5864b0b320294309ULL, 0xebe2f81017818b06ULL, 0x1e8a1508290daf51ULL}},
      {"gnp256-dense", {687, 669, 691},
       {0x01e37ef895b8f1b7ULL, 0x30c36f815dd5425fULL, 0x749070b92d74c115ULL}},
      {"regular6", {719, 731, 726},
       {0x63e2fc865b6d7333ULL, 0x2cf68e6f4e39d3a7ULL, 0xc074d3b845a22891ULL}},
      {"bipartite16x16", {98, 98, 98},
       {0x9d57479640ebe8ffULL, 0x9d57479640ebe8ffULL, 0x9d57479640ebe8ffULL}},
      {"barbell16", {64, 62, 64},
       {0xb0ebb647e47ea28bULL, 0xe7def5fe4fd405c7ULL, 0xb0ebb647e47ea28bULL}},
      {"forest2", {565, 483, 567},
       {0x8a1f7e85ce151c03ULL, 0x40e8ff91200531c1ULL, 0xfe6983a14af02e9dULL}},
      {"geometric", {694, 665, 696},
       {0x66126c5f06fba030ULL, 0x89efedbef3881b00ULL, 0xdcd330a01e811908ULL}},
      {"smallworld", {885, 646, 876},
       {0xafa4c3cf13ff5de9ULL, 0x2fb9419c8e149429ULL, 0x3e911ced048769bbULL}},
  };
  const std::vector<NamedGraph> suite = small_suite(1);
  ASSERT_EQ(suite.size(), goldens.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Graph& g = suite[i].graph;
    ASSERT_EQ(suite[i].name, goldens[i].graph);
    for (int policy = 0; policy < 3; ++policy) {
      std::int64_t moves = 0;
      std::uint64_t h = kFnv1aBasis;
      for (InitPattern pattern : all_init_patterns()) {
        const auto [m, colors] =
            run_sequential(g, make_init2(g, pattern, CoinOracle(1)), policy);
        moves += m;
        h = fnv1a(h, &m, sizeof m);
        h = fnv1a(h, colors.data(), colors.size());
      }
      const std::string where = suite[i].name + " " + kCentralPolicies[policy];
      EXPECT_EQ(moves, goldens[i].moves[policy]) << where;
      EXPECT_EQ(h, goldens[i].fingerprint[policy]) << where;
    }
  }
}

TEST(Sequential, CentralDaemonsChangeEachColorAtMostTwice) {
  // The classical invariant: under ANY central daemon each vertex changes
  // color at most twice, so an MIS is reached within 2n changes. A second
  // change is white -> black with no black neighbor, after which no neighbor
  // can turn black. It holds for the flip, where a step is a change, and for
  // the fair coin, where a step may redraw the current color.
  const std::vector<Graph> graphs = {
      gen::complete(20),       gen::path(50),        gen::cycle(33),
      gen::star(25),           gen::gnp(80, 0.1, 5), gen::random_tree(60, 6),
      gen::grid(7, 8),         gen::disjoint_cliques(4, 8),
  };
  const CoinOracle coins(3);
  for (const Graph& g : graphs) {
    for (InitPattern pattern : all_init_patterns()) {
      for (const bool flip : {true, false}) {
        for (const char* policy : kCentralPolicies) {
          DaemonMIS p(g, make_init2(g, pattern, coins), central_daemon(policy, g),
                      flip ? TwoStateRule::flip() : TwoStateRule(coins));
          const std::vector<int> changes = step_counting_changes(p, 1000000);
          const std::string where = g.summary() + " " + policy + " " + to_string(pattern) +
                                    (flip ? " flip" : " fair coin");
          ASSERT_TRUE(p.stabilized()) << where;
          EXPECT_LE(*std::max_element(changes.begin(), changes.end()), 2) << where;
          const int total = std::accumulate(changes.begin(), changes.end(), 0);
          EXPECT_LE(total, 2 * g.num_vertices()) << where;
          if (flip) {
            EXPECT_EQ(p.round(), total) << where;
          }
          EXPECT_TRUE(is_mis(g, p.black_set())) << where;
        }
      }
    }
  }
}

TEST(Sequential, FairCoinDithersSomewhere) {
  // Under a central daemon the fair coin can redraw the activated vertex's
  // current color: a step that changes nothing. It must occur for some seed.
  const Graph g = gen::complete(8);
  bool saw_dither = false;
  for (std::uint64_t seed = 0; seed < 40 && !saw_dither; ++seed) {
    DaemonMIS p(g, std::vector<Color2>(8, kB), std::make_unique<CentralDaemon>(seed),
                CoinOracle(seed));
    const std::vector<int> changes = step_counting_changes(p, 100000);
    saw_dither = p.round() > std::accumulate(changes.begin(), changes.end(), 0);
  }
  EXPECT_TRUE(saw_dither);
}

TEST(Sequential, FlipMovesDeterministically) {
  // Black with a black neighbor turns white, after which nothing is enabled.
  const Graph p2 = gen::path(2);
  DaemonMIS p(p2, {kB, kB}, central_daemon("lowest-id", p2), TwoStateRule::flip());
  p.step();
  EXPECT_EQ(p.colors(), (std::vector<Color2>{kW, kB}));
  EXPECT_TRUE(p.stabilized());
  // On an MIS nothing moves.
  const Graph p4 = gen::path(4);
  DaemonMIS q(p4, {kB, kW, kB, kW}, std::make_unique<RoundRobinDaemon>(),
              TwoStateRule::flip());
  EXPECT_EQ(run_until_stabilized(q, 100).rounds, 0);
}

TEST(Sequential, SynchronousFlipLivelocks) {
  // Run synchronously, the flip moves two adjacent blacks in lockstep
  // forever: K_2 goes bb -> ww -> bb -> ... This is what the coins remove.
  const Graph k2 = gen::complete(2);
  TwoStateMIS p(k2, {kB, kB}, TwoStateRule::flip());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.num_active(), 2);
    p.step();
    EXPECT_EQ(p.colors()[0], p.colors()[1]);
  }
  EXPECT_FALSE(p.stabilized());
  const Graph c6 = gen::cycle(6);
  TwoStateMIS q(c6, std::vector<Color2>(6, kB), TwoStateRule::flip());
  for (int i = 0; i < 20; ++i) q.step();
  EXPECT_FALSE(q.stabilized());
}

TEST(Sequential, RoundRobinCursorWraps) {
  RoundRobinDaemon daemon;
  const std::vector<Vertex> all = {0, 1, 2};
  EXPECT_EQ(daemon.activate(all, 1), std::vector<Vertex>{0});
  EXPECT_EQ(daemon.activate(all, 2), std::vector<Vertex>{1});
  const std::vector<Vertex> ends = {0, 2};
  EXPECT_EQ(daemon.activate(ends, 3), std::vector<Vertex>{2});
  EXPECT_EQ(daemon.activate(ends, 4), std::vector<Vertex>{0});  // past the last id
}

TEST(Sequential, MaxDegreePicksTheHub) {
  const Graph g = gen::star(5);
  DaemonMIS p(g, std::vector<Color2>(5, kB), central_daemon("max-degree", g),
              TwoStateRule::flip());
  EXPECT_EQ(central_daemon("max-degree", g)->activate(p.engine().scheduled_set(), 1),
            std::vector<Vertex>{0});
  p.step();  // the hub turns white, and every leaf is a stable black
  EXPECT_TRUE(p.stabilized());
}

TEST(Sequential, ActivatingADisabledVertexThrows) {
  // 0 and 1 are adjacent blacks; 2 is a white beside a black, not enabled.
  const Graph g = gen::path(3);
  for (const TwoStateRule& rule : {TwoStateRule::flip(), TwoStateRule(CoinOracle(1))}) {
    DaemonMIS p(g, {kB, kB, kW},
                std::make_unique<PickDaemon>("fixed", [](std::span<const Vertex>) { return 2; }),
                rule);
    EXPECT_THROW(p.step(), std::logic_error);
  }
}

}  // namespace
}  // namespace ssmis
