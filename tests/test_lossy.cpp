// Lossy carrier sensing and local-stabilization-time tests (extension
// features used by exp_lossy and exp_local_times).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"

namespace ssmis {
namespace {

TEST(Lossy, Validation) {
  const Graph g = gen::path(2);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, {0, 0}, CoinOracle(1));
  EXPECT_THROW(net.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(net.set_loss_probability(1.0), std::invalid_argument);
  EXPECT_THROW(net.set_loss_probability(std::nan("")), std::invalid_argument);
  net.set_loss_probability(0.5);
  EXPECT_DOUBLE_EQ(net.loss_probability(), 0.5);
}

TEST(Lossy, ZeroLossMatchesDirectProcess) {
  const Graph g = gen::gnp(40, 0.1, 3);
  const CoinOracle coins(5);
  const TwoStateBeepAutomaton automaton;
  std::vector<std::uint8_t> init(static_cast<std::size_t>(g.num_vertices()), 0);
  BeepingNetwork lossless(g, automaton, init, coins);
  lossless.set_loss_probability(0.0);
  BeepingNetwork plain(g, automaton, init, coins);
  for (int i = 0; i < 100; ++i) {
    lossless.step();
    plain.step();
    ASSERT_EQ(lossless.states(), plain.states());
  }
}

TEST(Lossy, StillReachesMisUnderModerateLoss) {
  const Graph g = gen::gnp(60, 0.08, 7);
  const TwoStateBeepAutomaton automaton;
  std::vector<std::uint8_t> init(static_cast<std::size_t>(g.num_vertices()), 1);
  BeepingNetwork net(g, automaton, init, CoinOracle(9));
  net.set_loss_probability(0.1);
  bool reached = false;
  for (int i = 0; i < 20000 && !reached; ++i) {
    net.step();
    reached = is_mis(g, net.claimed_mis());
  }
  EXPECT_TRUE(reached);
}

TEST(Lossy, LossCanBreakAStableConfiguration) {
  // A stable configuration is no longer absorbing under loss: a covered
  // white vertex that misses its head's beep re-activates. With heavy loss
  // on a star this is near-certain within a few rounds.
  const Graph g = gen::star(10);
  const TwoStateBeepAutomaton automaton;
  // Hub black (an MIS), leaves white.
  std::vector<std::uint8_t> init(10, 0);
  init[0] = 1;
  BeepingNetwork net(g, automaton, init, CoinOracle(11));
  ASSERT_TRUE(is_mis(g, net.claimed_mis()));
  net.set_loss_probability(0.5);
  bool ever_broken = false;
  for (int i = 0; i < 200; ++i) {
    net.step();
    if (!is_mis(g, net.claimed_mis())) ever_broken = true;
  }
  EXPECT_TRUE(ever_broken);
}

TEST(LocalTimes, SizesAndCoverage) {
  const Graph g = gen::gnp(100, 0.05, 13);
  MeasureConfig config;
  config.seed = 17;
  config.max_rounds = 100000;
  const auto times = vertex_stabilization_times(g, config);
  ASSERT_EQ(times.size(), 100u);
  for (std::int64_t t : times) EXPECT_GE(t, 0);  // run stabilized: all covered
}

TEST(LocalTimes, MaxEqualsGlobalStabilizationTime) {
  const Graph g = gen::gnp(80, 0.06, 19);
  MeasureConfig config;
  config.seed = 23;
  config.max_rounds = 100000;
  const auto times = vertex_stabilization_times(g, config);
  const auto global = measure_stabilization(g, [&] {
                        MeasureConfig c = config;
                        c.trials = 1;
                        return c;
                      }()).summary.max;
  const auto max_local = *std::max_element(times.begin(), times.end());
  EXPECT_DOUBLE_EQ(static_cast<double>(max_local), global);
}

TEST(LocalTimes, MedianBelowMaxOnLargeGraphs) {
  const Graph g = gen::gnp(500, 0.01, 29);
  MeasureConfig config;
  config.seed = 31;
  config.max_rounds = 100000;
  const auto times = vertex_stabilization_times(g, config);
  std::vector<std::int64_t> sorted(times);
  std::sort(sorted.begin(), sorted.end());
  const auto median = sorted[sorted.size() / 2];
  const auto max = sorted.back();
  EXPECT_LT(median, max);
}

TEST(LocalTimes, WorksForAllRegisteredProtocols) {
  // Every registered protocol — networks, daemon, and the new workloads
  // included — reports per-vertex settle times through the one shared path.
  const Graph g = gen::gnp(40, 0.15, 37);
  for (const std::string& protocol : ProtocolRegistry::instance().names()) {
    MeasureConfig config;
    config.protocol = protocol;
    config.seed = 41;
    config.max_rounds = 500000;
    const auto times = vertex_stabilization_times(g, config);
    ASSERT_EQ(times.size(), 40u) << protocol;
    for (std::int64_t t : times) EXPECT_GE(t, 0) << protocol;
  }
}

}  // namespace
}  // namespace ssmis
