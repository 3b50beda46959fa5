// End-to-end scenarios crossing module boundaries: processes + models +
// faults + harness + verification in one flow.
#include <gtest/gtest.h>

#include <cmath>

#include "core/daemon.hpp"
#include "core/faults.hpp"
#include "core/init.hpp"
#include "core/luby.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/good_graph.hpp"
#include "harness/experiment.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "stats/fit.hpp"

namespace ssmis {
namespace {

TEST(Integration, Theorem8ShapeCliqueLogarithmic) {
  // 2-state on K_n: mean stabilization grows like log n — the ratio
  // mean/log2(n) should stay within a small constant band across sizes.
  std::vector<double> log_n, mean_rounds;
  for (Vertex n : {16, 32, 64, 128, 256}) {
    const Graph g = gen::complete(n);
    MeasureConfig config;
    config.trials = 15;
    config.seed = 100 + static_cast<std::uint64_t>(n);
    config.max_rounds = 1000000;
    const Measurements m = measure_stabilization(g, config);
    ASSERT_EQ(m.timeouts, 0);
    log_n.push_back(std::log2(static_cast<double>(n)));
    mean_rounds.push_back(m.summary.mean);
  }
  // Growth clearly sub-linear: mean(K256) < 4 x mean(K16) even though n
  // grew 16x; and positively correlated with log n.
  EXPECT_LT(mean_rounds.back(), 6.0 * mean_rounds.front());
  EXPECT_GT(fit_linear(log_n, mean_rounds).slope, 0.0);
}

TEST(Integration, Theorem11TreesFasterThanCliques) {
  // Bounded arboricity O(log n) vs clique Theta(log n) expected but with
  // larger constants: at minimum, trees must stabilize and stay in the same
  // order of magnitude of rounds.
  const Graph tree = gen::random_tree(1024, 5);
  MeasureConfig config;
  config.trials = 10;
  config.max_rounds = 100000;
  const Measurements m = measure_stabilization(tree, config);
  EXPECT_EQ(m.timeouts, 0);
  EXPECT_LT(m.summary.mean, 30 * std::log2(1024.0));
}

TEST(Integration, GnpSparseAndDenseBothPolylog) {
  for (double p : {0.01, 0.3}) {
    const Graph g = gen::gnp(512, p, 77);
    MeasureConfig config;
    config.trials = 5;
    config.max_rounds = 500000;
    const Measurements m = measure_stabilization(g, config);
    EXPECT_EQ(m.timeouts, 0) << "p=" << p;
    const double log_n = std::log2(512.0);
    EXPECT_LT(m.summary.max, 20 * log_n * log_n) << "p=" << p;
  }
}

TEST(Integration, ThreeColorHandlesIntermediateRegime) {
  // p = n^{-1/4}: the regime where the 2-state analysis does not apply but
  // Theorem 32 guarantees poly(log n) for the 3-color process.
  const Vertex n = 512;
  const double p = std::pow(static_cast<double>(n), -0.25);
  const Graph g = gen::gnp(n, p, 31);
  MeasureConfig config;
  config.protocol = "3color";
  config.trials = 5;
  config.max_rounds = 500000;
  const Measurements m = measure_stabilization(g, config);
  EXPECT_EQ(m.timeouts, 0);
  const double log_n = std::log2(static_cast<double>(n));
  EXPECT_LT(m.summary.max, 40 * log_n * log_n);
}

TEST(Integration, BeepingNetworkSurvivesFaultsViaUnderlyingProcess) {
  // Run the beeping-model 2-state algorithm, corrupt mid-flight by forcing
  // states in the network, keep running: it must still reach a valid MIS
  // (self-stabilization at the model level).
  const Graph g = gen::gnp(80, 0.08, 41);
  const CoinOracle coins(43);
  const TwoStateBeepAutomaton automaton;
  std::vector<std::uint8_t> init(static_cast<std::size_t>(g.num_vertices()), 0);
  BeepingNetwork net(g, automaton, init, coins);
  for (int i = 0; i < 300; ++i) net.step();
  // "Fault": rebuild the network from a half-corrupted snapshot, keeping
  // the same oracle (future coins unchanged).
  std::vector<std::uint8_t> corrupted = net.colors();
  for (Vertex u = 0; u < g.num_vertices(); u += 2)
    corrupted[static_cast<std::size_t>(u)] ^= 1;
  BeepingNetwork net2(g, automaton, corrupted, coins);
  for (int i = 0; i < 5000; ++i) {
    net2.step();
    if (is_mis(g, net2.black_set())) break;
  }
  EXPECT_TRUE(is_mis(g, net2.black_set()));
}

TEST(Integration, RepeatedFaultBurstsAlwaysReconverge) {
  const Graph g = gen::gnp(100, 0.06, 47);
  const CoinOracle coins(53);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  for (int burst = 0; burst < 5; ++burst) {
    const RunResult r = p.run(100000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << "burst " << burst;
    ASSERT_TRUE(is_mis(g, p.output_set()));
    inject_faults(p, 0.3, burst);
  }
}

TEST(Integration, AllAlgorithmsAgreeOnValidityNotIdentity) {
  // Different algorithms on the same graph: all MIS, often different sets.
  const Graph g = gen::gnp(120, 0.07, 59);
  const CoinOracle coins(61);

  TwoStateMIS p2(g, make_init2(g, InitPattern::kAllWhite, coins), coins);
  run_until_stabilized(p2, 100000);
  ASSERT_TRUE(is_mis(g, p2.black_set()));

  LubyMIS luby(g, coins);
  luby.run(1000);
  ASSERT_TRUE(is_mis(g, luby.mis_set()));

  DaemonMIS seq(g, make_init2(g, InitPattern::kAllWhite, coins),
                std::make_unique<RoundRobinDaemon>(), TwoStateRule::flip());
  run_until_stabilized(seq, 10 * g.num_vertices());
  ASSERT_TRUE(is_mis(g, seq.black_set()));

  EXPECT_TRUE(is_mis(g, greedy_mis(g)));
}

TEST(Integration, GoodGraphPropertiesHoldOnTypicalGnp) {
  // Lemma 18 in miniature: a few (n, p) cells, sampled checker, all pass.
  struct Cell { Vertex n; double p; };
  for (const Cell cell : {Cell{128, 0.2}, Cell{256, 0.1}, Cell{256, 0.05}}) {
    const Graph g = gen::gnp(cell.n, cell.p, 1000 + cell.n);
    const auto report = check_good_sampled(g, cell.p, 15, 7);
    EXPECT_TRUE(report.all())
        << "n=" << cell.n << " p=" << cell.p << " " << report.to_string();
  }
}

TEST(Integration, DisjointCliquesStabilizationIsMaxOverComponents) {
  // Remark 9's mechanism: the process on disjoint cliques is the max of
  // independent clique processes. Cross-check: running on the union gives
  // the same per-component black sets as running per component with the
  // same per-vertex coins would (components do not interact).
  const Graph g = gen::disjoint_cliques(8, 16);
  const CoinOracle coins(67);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 1000000);
  ASSERT_TRUE(r.stabilized);
  const auto comp = connected_components(g);
  std::vector<int> blacks_per_comp(8, 0);
  for (Vertex u : p.black_set()) ++blacks_per_comp[static_cast<std::size_t>(comp[static_cast<std::size_t>(u)])];
  for (int count : blacks_per_comp) EXPECT_EQ(count, 1);  // one per clique
}

TEST(Integration, TracedRunShowsProgressStructure) {
  const Graph g = gen::gnp(200, 0.05, 71);
  MeasureConfig config;
  config.trials = 1;
  config.max_rounds = 100000;
  const RunResult r = traced_run(g, config);
  ASSERT_TRUE(r.stabilized);
  // |V_t| ends at 0, starts positive, never increases.
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_GT(r.trace.front().unstable, 0);
  EXPECT_EQ(r.trace.back().unstable, 0);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    ASSERT_LE(r.trace[i].unstable, r.trace[i - 1].unstable);
}

}  // namespace
}  // namespace ssmis
