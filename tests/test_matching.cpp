// The two post-registry workloads: MaximalMatching (2-state process on the
// line graph) and `priority` (the 2-state process drawing from a per-vertex
// bias table), plus the maximal-matching verifier they are checked against.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/matching.hpp"
#include "core/runner.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"

namespace ssmis {
namespace {

// --- the verifier itself ---------------------------------------------------

TEST(MatchingVerify, AcceptsGreedyOnSuite) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    for (const Graph& g : {gen::gnp(80, 0.06, seed), gen::random_tree(60, seed),
                           gen::complete(9), gen::cycle(5), gen::path(7)}) {
      const auto m = greedy_maximal_matching(g);
      EXPECT_TRUE(is_matching(g, m));
      EXPECT_TRUE(is_maximal_matching(g, m));
      EXPECT_FALSE(find_matching_violation(g, m).has_value());
    }
  }
}

TEST(MatchingVerify, RejectsNonEdges) {
  const Graph g = gen::path(4);  // edges 0-1, 1-2, 2-3
  EXPECT_FALSE(is_matching(g, {{0, 2}}));
  const auto violation = find_matching_violation(g, {{0, 2}});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("not an edge"), std::string::npos);
}

TEST(MatchingVerify, RejectsSharedEndpoints) {
  const Graph g = gen::path(4);
  EXPECT_FALSE(is_matching(g, {{0, 1}, {1, 2}}));
  const auto violation = find_matching_violation(g, {{0, 1}, {1, 2}});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("two matching edges"), std::string::npos);
}

TEST(MatchingVerify, RejectsNonMaximal) {
  const Graph g = gen::path(4);
  // {0-1} leaves edge 2-3 addable.
  EXPECT_TRUE(is_matching(g, {{0, 1}}));
  EXPECT_FALSE(is_maximal_matching(g, {{0, 1}}));
  const auto violation = find_matching_violation(g, {{0, 1}});
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("maximality"), std::string::npos);
  // The empty matching on an edgeless graph is trivially maximal.
  EXPECT_TRUE(is_maximal_matching(gen::path(1), {}));
}

// --- the line graph --------------------------------------------------------

TEST(LineGraph, PathAndTriangleAndStar) {
  // P4 has 3 edges in a path: L(P4) = P3.
  const Graph lp = line_graph(gen::path(4));
  EXPECT_EQ(lp.num_vertices(), 3);
  EXPECT_EQ(lp.num_edges(), 2);
  // Triangle: L(K3) = K3.
  const Graph lt = line_graph(gen::complete(3));
  EXPECT_EQ(lt.num_vertices(), 3);
  EXPECT_EQ(lt.num_edges(), 3);
  // Star K_{1,5}: all 5 edges share the hub => L = K5.
  const Graph ls = line_graph(gen::star(6));
  EXPECT_EQ(ls.num_vertices(), 5);
  EXPECT_EQ(ls.num_edges(), 10);
  // Edgeless graph: empty line graph.
  EXPECT_EQ(line_graph(gen::path(1)).num_vertices(), 0);
}

// --- MaximalMatching -------------------------------------------------------

TEST(MaximalMatching, StabilizesToValidMatchingAcrossFamilies) {
  for (std::uint64_t seed : {3ull, 4ull}) {
    for (const Graph& g :
         {gen::gnp(100, 0.05, seed), gen::complete(20), gen::cycle(5),
          gen::random_tree(80, seed), gen::star(12)}) {
      auto p = MaximalMatching::from_pattern(g, InitPattern::kUniformRandom,
                                             CoinOracle(seed + 10));
      const RunResult r = run_until_stabilized(p, 500000);
      ASSERT_TRUE(r.stabilized);
      const auto matching = p.matching();
      EXPECT_TRUE(is_maximal_matching(g, matching))
          << find_matching_violation(g, matching).value_or("");
      // matched_set is exactly the union of the matching's endpoints.
      std::set<Vertex> endpoints;
      for (const auto& [u, v] : matching) {
        endpoints.insert(u);
        endpoints.insert(v);
      }
      const auto matched = p.matched_set();
      EXPECT_TRUE(std::equal(matched.begin(), matched.end(), endpoints.begin(),
                             endpoints.end()));
      EXPECT_EQ(p.num_black(), static_cast<Vertex>(matching.size()));
    }
  }
}

TEST(MaximalMatching, AdversarialInitsRecover) {
  const Graph g = gen::gnp(60, 0.1, 7);
  for (InitPattern pattern : all_init_patterns()) {
    auto p = MaximalMatching::from_pattern(g, pattern, CoinOracle(11));
    const RunResult r = run_until_stabilized(p, 500000);
    ASSERT_TRUE(r.stabilized) << to_string(pattern);
    EXPECT_TRUE(is_maximal_matching(g, p.matching())) << to_string(pattern);
  }
}

TEST(MaximalMatching, EdgeFaultsRecover) {
  const Graph g = gen::gnp(50, 0.1, 13);
  auto p = MaximalMatching::from_pattern(g, InitPattern::kAllWhite, CoinOracle(17));
  ASSERT_TRUE(run_until_stabilized(p, 500000).stabilized);
  // Claim every edge at vertex 0 and free every edge at vertex 1: both
  // corruptions must be repaired.
  for (Vertex k : p.incident_edges(0)) p.force_color(k, Color2::kBlack);
  for (Vertex k : p.incident_edges(1)) p.force_color(k, Color2::kWhite);
  ASSERT_TRUE(run_until_stabilized(p, 500000).stabilized);
  EXPECT_TRUE(is_maximal_matching(g, p.matching()));
}

TEST(MaximalMatching, SizeWithinTwoApproximationBand) {
  // Any maximal matching is a 2-approximation of maximum: sizes across
  // seeds stay within [greedy/2, 2*greedy].
  const Graph g = gen::gnp(200, 0.03, 19);
  const double greedy = static_cast<double>(greedy_maximal_matching(g).size());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto p = MaximalMatching::from_pattern(g, InitPattern::kUniformRandom,
                                           CoinOracle(seed));
    ASSERT_TRUE(run_until_stabilized(p, 500000).stabilized);
    const double size = static_cast<double>(p.matching().size());
    EXPECT_GE(size, greedy / 2.0);
    EXPECT_LE(size, greedy * 2.0);
  }
}

// --- priority: the per-vertex bias table -----------------------------------

TEST(PriorityMis, StabilizesToValidMisForAllModes) {
  const Graph g = gen::gnp(80, 0.08, 23);
  for (const char* mode : {"id", "degree", "random"}) {
    const CoinOracle coins(29);
    TwoStateMIS p(
        g, make_init2(g, InitPattern::kUniformRandom, coins),
        TwoStateRule(coins, make_priority_biases(g, mode, 0.25, 0.75, 29)));
    const RunResult r = run_until_stabilized(p, 500000);
    ASSERT_TRUE(r.stabilized) << mode;
    EXPECT_TRUE(is_mis(g, p.black_set())) << mode;
  }
}

TEST(PriorityMis, BiasValidation) {
  const Graph g = gen::path(4);
  EXPECT_THROW(make_priority_biases(g, "id", 0.0, 0.5, 1),
               std::invalid_argument);
  EXPECT_THROW(make_priority_biases(g, "id", 0.5, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(make_priority_biases(g, "nope", 0.2, 0.8, 1),
               std::invalid_argument);
  const auto biases = make_priority_biases(g, "id", 0.2, 0.8, 1);
  EXPECT_DOUBLE_EQ((*biases)[0], 0.2);
  EXPECT_DOUBLE_EQ((*biases)[3], 0.8);
}

// The differential the workload exists for: on a clique exactly one vertex
// wins, and with the ID bias the winner distribution must skew high — the
// mean winning id across seeds clearly exceeds the uniform mean (n-1)/2.
TEST(PriorityMis, IdBiasSkewsTheWinnerDifferential) {
  const Graph g = gen::complete(16);
  const int trials = 200;
  double priority_sum = 0.0;
  double uniform_sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t);
    ProtocolParams params;
    const auto biased =
        ProtocolRegistry::instance().make("priority", g, params, seed);
    EXPECT_TRUE(biased->run(100000, TraceMode::kNone).stabilized);
    priority_sum += static_cast<double>(biased->output_set().at(0));
    const auto fair = ProtocolRegistry::instance().make("2state", g, params, seed);
    EXPECT_TRUE(fair->run(100000, TraceMode::kNone).stabilized);
    uniform_sum += static_cast<double>(fair->output_set().at(0));
  }
  const double priority_mean = priority_sum / trials;
  const double uniform_mean = uniform_sum / trials;
  // Uniform sits near 7.5; the ID bias must push the winner mean well above
  // both it and the fair process's empirical mean.
  EXPECT_GT(priority_mean, 9.0);
  EXPECT_GT(priority_mean, uniform_mean + 1.0);
}

TEST(PriorityMis, DegreeBiasFavorsTheHub) {
  // Star: the hub is in the MIS iff the MIS is {hub}. With degree bias the
  // hub should win far more often than under the fair process.
  const Graph g = gen::star(9);
  const int trials = 200;
  int hub_biased = 0;
  int hub_fair = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(t);
    ProtocolParams params;
    params.set("priority", "degree");
    params.set("bias-lo", "0.1");
    params.set("bias-hi", "0.9");
    const auto biased =
        ProtocolRegistry::instance().make("priority", g, params, seed);
    EXPECT_TRUE(biased->run(100000, TraceMode::kNone).stabilized);
    if (biased->output_set().front() == 0) ++hub_biased;
    ProtocolParams none;
    const auto fair = ProtocolRegistry::instance().make("2state", g, none, seed);
    EXPECT_TRUE(fair->run(100000, TraceMode::kNone).stabilized);
    if (fair->output_set().front() == 0) ++hub_fair;
  }
  EXPECT_GT(hub_biased, hub_fair + trials / 10);
}

}  // namespace
}  // namespace ssmis
