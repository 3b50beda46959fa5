#include <gtest/gtest.h>

#include "core/faults.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"

namespace ssmis {
namespace {

TEST(Runner, StopsAtStabilization) {
  const Graph g = gen::complete(16);
  const CoinOracle coins(3);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 100000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_EQ(r.rounds, p.round());
  EXPECT_TRUE(p.stabilized());
}

TEST(Runner, RespectsMaxRounds) {
  const Graph g = gen::complete(64);
  const CoinOracle coins(3);
  TwoStateMIS p(g, make_init2(g, InitPattern::kAllBlack, coins), coins);
  const RunResult r = run_until_stabilized(p, 1);
  EXPECT_EQ(r.rounds, 1);
  // (A 64-clique essentially never stabilizes in one round from all-black.)
  EXPECT_FALSE(r.stabilized);
}

TEST(Runner, TraceRecordsEveryRoundPlusInitial) {
  const Graph g = gen::complete(8);
  const CoinOracle coins(5);
  TwoStateMIS p(g, make_init2(g, InitPattern::kAllBlack, coins), coins);
  const RunResult r = run_until_stabilized(p, 10000, TraceMode::kPerRound);
  ASSERT_TRUE(r.stabilized);
  ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(r.rounds) + 1);
  EXPECT_EQ(r.trace.front().round, 0);
  EXPECT_EQ(r.trace.back().round, r.rounds);
  // Final snapshot: no active vertices, everything stable.
  EXPECT_EQ(r.trace.back().active, 0);
  EXPECT_EQ(r.trace.back().unstable, 0);
}

TEST(Runner, TraceInvariants) {
  const Graph g = gen::gnp(40, 0.15, 7);
  const CoinOracle coins(7);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 10000, TraceMode::kPerRound);
  ASSERT_TRUE(r.stabilized);
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const RoundStats& s = r.trace[i];
    EXPECT_LE(s.stable_black, s.black);
    EXPECT_LE(s.active, 40);
    EXPECT_GE(s.unstable, 0);
    if (i > 0) {
      EXPECT_LE(s.unstable, r.trace[i - 1].unstable);  // V_t shrinks
    }
  }
}

TEST(Runner, SnapshotReflectsProcess) {
  const Graph g = gen::path(4);
  TwoStateMIS p(g, {Color2::kBlack, Color2::kWhite, Color2::kBlack, Color2::kWhite},
                CoinOracle(1));
  const RoundStats s = snapshot(p);
  EXPECT_EQ(s.black, 2);
  EXPECT_EQ(s.active, 0);
  EXPECT_EQ(s.stable_black, 2);
  EXPECT_EQ(s.unstable, 0);
  EXPECT_EQ(s.gray, 0);
}

TEST(Runner, TraceCsvFormat) {
  RunResult r;
  r.trace.push_back({0, 3, 2, 1, 4, 0});
  const std::string csv = trace_to_csv(r);
  EXPECT_NE(csv.find("round,black,active,stable_black,unstable,gray"), std::string::npos);
  EXPECT_NE(csv.find("0,3,2,1,4,0"), std::string::npos);
}

TEST(Faults, TwoStateRecoversFromCorruption) {
  const Graph g = gen::gnp(60, 0.1, 11);
  const CoinOracle coins(13);
  MisFamilyAdapter<TwoStateMIS> p(
      TwoStateMIS(g, make_init2(g, InitPattern::kUniformRandom, coins), coins));
  RunResult r = p.run(50000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  const auto report = inject_faults(p, 0.5, /*salt=*/1);
  EXPECT_GT(report.corrupted, 0);
  // Self-stabilization: it re-converges to some (possibly different) MIS.
  r = p.run(50000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

TEST(Faults, ThreeStateRecovers) {
  const Graph g = gen::gnp(60, 0.1, 17);
  const CoinOracle coins(19);
  MisFamilyAdapter<ThreeStateMIS> p(
      ThreeStateMIS(g, make_init3(g, InitPattern::kAllWhite, coins), coins));
  RunResult r = p.run(50000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  inject_faults(p, 0.4, 2);
  r = p.run(50000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

// The phase-clock levels of a 3-color switch, read through the exact-state
// accessor (which replays any deferred clock rounds first).
std::vector<int> clock_levels(const ThreeColorMIS& p) {
  return dynamic_cast<const RandomizedLogSwitch&>(p.switch_process())
      .clock()
      .levels();
}

int count_changed(const std::vector<int>& a, const std::vector<int>& b) {
  int changed = 0;
  for (std::size_t i = 0; i < a.size(); ++i) changed += a[i] != b[i] ? 1 : 0;
  return changed;
}

TEST(Faults, ThreeColorRecoversIncludingClockCorruption) {
  const Graph g = gen::gnp(50, 0.2, 23);
  const CoinOracle coins(29);
  MisFamilyAdapter<ThreeColorMIS> p(ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins));
  RunResult r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  const std::vector<int> before = clock_levels(p.impl());
  inject_faults(p, 0.5, 3);
  EXPECT_GT(count_changed(before, clock_levels(p.impl())), 0);
  r = p.run(100000, TraceMode::kNone);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.output_set()));
}

// A 3-color fault corrupts the switch whichever way the process is built:
// the adapter over a directly built ThreeColorMIS and the registry's
// `3color` take the same faults from the same seed, and end identical.
TEST(Faults, ThreeColorFaultCorruptsTheClockWhicheverWayBuilt) {
  const Graph g = gen::gnp(200, 0.05, 31);
  const std::uint64_t seed = 37;
  const CoinOracle coins(seed);
  MisFamilyAdapter<ThreeColorMIS> direct(ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins));
  const auto registry_process =
      ProtocolRegistry::instance().make("3color", g, ProtocolParams(), seed);
  auto& registered =
      dynamic_cast<MisFamilyAdapter<ThreeColorMIS>&>(*registry_process);
  for (MisFamilyAdapter<ThreeColorMIS>* p : {&direct, &registered}) {
    for (int i = 0; i < 20; ++i) p->step();
    const std::vector<int> before = clock_levels(p->impl());
    EXPECT_EQ(inject_faults(*p, 1.0, 5).corrupted, g.num_vertices());
    EXPECT_GT(count_changed(before, clock_levels(p->impl())),
              g.num_vertices() / 2);
    ASSERT_TRUE(p->run(100000, TraceMode::kNone).stabilized);
  }
  EXPECT_EQ(direct.impl().colors(), registered.impl().colors());
  EXPECT_EQ(clock_levels(direct.impl()), clock_levels(registered.impl()));
  EXPECT_EQ(direct.round(), registered.round());
}

TEST(Faults, ZeroFractionCorruptsNothing) {
  const Graph g = gen::path(10);
  const CoinOracle coins(31);
  MisFamilyAdapter<TwoStateMIS> p(
      TwoStateMIS(g, make_init2(g, InitPattern::kAllWhite, coins), coins));
  EXPECT_EQ(inject_faults(p, 0.0, 1).corrupted, 0);
}

TEST(Faults, FullFractionTouchesEveryVertex) {
  const Graph g = gen::path(10);
  const CoinOracle coins(37);
  MisFamilyAdapter<TwoStateMIS> p(
      TwoStateMIS(g, make_init2(g, InitPattern::kAllWhite, coins), coins));
  EXPECT_EQ(inject_faults(p, 1.0, 1).corrupted, 10);
}

TEST(Harness, MeasureStabilizationVerifiesMis) {
  const Graph g = gen::complete(16);
  MeasureConfig config;
  config.protocol = "2state";
  config.trials = 10;
  config.max_rounds = 100000;
  const Measurements m = measure_stabilization(g, config);
  EXPECT_EQ(m.timeouts, 0);
  EXPECT_EQ(m.stabilization_rounds.size(), 10u);
  EXPECT_GT(m.summary.mean, 0.0);
}

TEST(Harness, AllThreeKindsRun) {
  const Graph g = gen::gnp(30, 0.2, 41);
  for (const char* protocol : {"2state", "3state", "3color"}) {
    MeasureConfig config;
    config.protocol = protocol;
    config.trials = 3;
    config.max_rounds = 200000;
    const Measurements m = measure_stabilization(g, config);
    EXPECT_EQ(m.timeouts, 0) << protocol;
  }
}

TEST(Harness, TracedRunEndsStable) {
  const Graph g = gen::complete(12);
  MeasureConfig config;
  config.protocol = "3state";
  const RunResult r = traced_run(g, config);
  ASSERT_TRUE(r.stabilized);
  EXPECT_FALSE(r.trace.empty());
}

TEST(Harness, TimeoutsReported) {
  const Graph g = gen::complete(64);
  MeasureConfig config;
  config.protocol = "2state";
  config.init = InitPattern::kAllBlack;
  config.trials = 5;
  config.max_rounds = 1;  // cannot stabilize in one round
  const Measurements m = measure_stabilization(g, config);
  EXPECT_EQ(m.timeouts, 5);
}

}  // namespace
}  // namespace ssmis
