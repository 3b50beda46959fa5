#include <gtest/gtest.h>

#include <cmath>

#include "core/log_switch.hpp"
#include "core/phase_clock.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "reference_processes.hpp"
#include "switch_doubles.hpp"

namespace ssmis {
namespace {

TEST(PhaseClock, ConstructorValidation) {
  const Graph g = gen::path(3);
  EXPECT_THROW(PhaseClock(g, 0, {0, 0, 0}, CoinOracle(1)), std::invalid_argument);
  EXPECT_THROW(PhaseClock(g, 254, {0, 0, 0}, CoinOracle(1)), std::invalid_argument);
  EXPECT_NO_THROW(PhaseClock(g, PhaseClock::kMaxD, {0, 0, 255}, CoinOracle(1)));
  // with_random_levels draws levels modulo d + 3, so it checks d first.
  for (int d : {-3, 0, 254, 2147483647})
    EXPECT_THROW(PhaseClock::with_random_levels(g, d, CoinOracle(1)),
                 std::invalid_argument) << d;
  EXPECT_THROW(PhaseClock(g, 3, {0, 0}, CoinOracle(1)), std::invalid_argument);
  EXPECT_THROW(PhaseClock(g, 3, {0, 0, 9}, CoinOracle(1)), std::invalid_argument);
  EXPECT_THROW(PhaseClock(g, 3, {0, 0, 0}, CoinOracle(1), 0, 7), std::invalid_argument);
  EXPECT_THROW(PhaseClock(g, 3, {0, 0, 0}, CoinOracle(1), 128, 7), std::invalid_argument);
  EXPECT_NO_THROW(PhaseClock(g, 3, {0, 5, 3}, CoinOracle(1)));
}

TEST(PhaseClock, StateCountIsDPlus3) {
  const Graph g = gen::path(3);
  const PhaseClock clock(g, 3, {0, 0, 0}, CoinOracle(1));
  EXPECT_EQ(clock.num_states(), 6);
  EXPECT_EQ(clock.top_level(), 5);
  const PhaseClock clock2(g, 2, {0, 0, 0}, CoinOracle(1));
  EXPECT_EQ(clock2.num_states(), 5);
}

TEST(PhaseClock, ZeroJumpsToTop) {
  const Graph g = Graph::from_edges(1, {});
  PhaseClock clock(g, 3, {0}, CoinOracle(1));
  clock.step();
  EXPECT_EQ(clock.level(0), 5);
}

TEST(PhaseClock, CountdownPropagatesMax) {
  // Path 0-1-2 with levels 3, 1, 1: vertex 1 sees max(3,1,1)-1 = 2.
  const Graph g = gen::path(3);
  PhaseClock clock(g, 3, {3, 1, 1}, CoinOracle(1));
  clock.step();
  EXPECT_EQ(clock.level(0), 2);  // max(3,1)-1
  EXPECT_EQ(clock.level(1), 2);  // max(3,1,1)-1
  EXPECT_EQ(clock.level(2), 0);  // max(1,1)-1
}

TEST(PhaseClock, MatchesReferenceImplementation) {
  const Graph g = gen::gnp(40, 0.15, 13);
  const CoinOracle coins(55);
  PhaseClock clock = PhaseClock::with_random_levels(g, 3, coins);
  std::vector<int> ref = clock.levels();
  for (std::int64_t t = 1; t <= 300; ++t) {
    clock.step();
    ref = testing::reference_clock_step(g, ref, coins, t, 3);
    ASSERT_EQ(clock.levels(), ref) << "diverged at round " << t;
  }
}

// Above twice the fan-out grain (n + 2m ~ 2.4e6 work units) the round runs
// in vertex ranges on the shared pool when the host has more than one
// hardware thread; it must still match the sequential reference round by
// round and through the deferred replay. Avg-deg 8 puts rows on both sides
// of the kernel's fixed-trip length.
TEST(PhaseClock, WidthIndependentAboveGrain) {
  const Vertex n = Vertex{1} << 18;
  const Graph g = gen::gnp(n, 8.0 / (n - 1), 21);
  ASSERT_GT(g.num_vertices() + 2 * g.num_edges(), 2 * PhaseClock::kGrain);
  const CoinOracle coins(34);
  PhaseClock clock = PhaseClock::with_random_levels(g, 3, coins);
  std::vector<int> ref = clock.levels();
  for (std::int64_t t = 1; t <= 300; ++t) {
    clock.step();
    ref = testing::reference_clock_step(g, ref, coins, t, 3);
    ASSERT_EQ(clock.levels(), ref) << "diverged at round " << t;
  }

  PhaseClock replayed = PhaseClock::with_random_levels(g, 3, coins);
  replayed.advance(120);
  replayed.advance(0);
  replayed.advance(180);
  EXPECT_EQ(replayed.round(), 300);
  EXPECT_EQ(replayed.levels(), ref);
}

TEST(PhaseClock, TopVertexStaysWithHighProbability) {
  // zeta = 2^-7: a top-level isolated vertex advances rarely.
  const Graph g = Graph::from_edges(1, {});
  PhaseClock clock(g, 3, {5}, CoinOracle(2));
  int stays = 0;
  const int rounds = 1000;
  for (int i = 0; i < rounds; ++i) {
    const int before = clock.level(0);
    clock.step();
    if (before == 5 && clock.level(0) == 5) ++stays;
  }
  EXPECT_GT(stays, 900);  // expect ~ (1 - 1/128) of top rounds
}

TEST(PhaseClock, SynchronizesOnDiameterTwoGraph) {
  // Lemma 27's synchronization argument: on diam <= 2 graphs, once some
  // vertex hits top, within a few rounds all vertices move in lockstep:
  // whenever any vertex is at level 2, all are.
  const Graph g = gen::star(20);  // diameter 2
  const CoinOracle coins(77);
  PhaseClock clock = PhaseClock::with_random_levels(g, 3, coins);
  for (int i = 0; i < 30; ++i) clock.step();  // warm-up >= t* + 2
  for (int i = 0; i < 500; ++i) {
    clock.step();
    bool any2 = false, all2 = true;
    for (Vertex u = 0; u < 20; ++u) {
      if (clock.level(u) == 2) any2 = true;
      else all2 = false;
    }
    if (any2) {
      ASSERT_TRUE(all2) << "round " << clock.round();
    }
  }
}

TEST(PhaseClock, ForceLevelValidation) {
  const Graph g = gen::path(2);
  PhaseClock clock(g, 3, {0, 0}, CoinOracle(1));
  EXPECT_THROW(clock.force_level(5, 2), std::out_of_range);
  EXPECT_THROW(clock.force_level(0, 9), std::invalid_argument);
  clock.force_level(0, 4);
  EXPECT_EQ(clock.level(0), 4);
}

TEST(LogSwitch, SigmaMappingOnIffLevelAtMost2) {
  const Graph g = gen::path(6);
  RandomizedLogSwitch sw(PhaseClock(g, 3, {0, 1, 2, 3, 4, 5}, CoinOracle(1)));
  EXPECT_TRUE(sw.on(0));
  EXPECT_TRUE(sw.on(1));
  EXPECT_TRUE(sw.on(2));
  EXPECT_FALSE(sw.on(3));
  EXPECT_FALSE(sw.on(4));
  EXPECT_FALSE(sw.on(5));
}

TEST(LogSwitch, UsesSixStatesAndDefaultZeta) {
  const Graph g = gen::path(2);
  RandomizedLogSwitch sw(g, CoinOracle(1));
  EXPECT_EQ(sw.num_states(), 6);
  EXPECT_DOUBLE_EQ(sw.clock().zeta(), 1.0 / 128.0);
  EXPECT_DOUBLE_EQ(sw.parameter_a(), 512.0);
}

TEST(LogSwitch, S1MaxOffRunBounded) {
  // Property S1 with a = 512: off-runs at most a ln n. On n = 32 that is
  // ~1774 rounds; we run 4000 rounds and check the bound.
  const Graph g = gen::gnp(32, 0.3, 3);
  RandomizedLogSwitch sw(g, CoinOracle(5));
  const auto stats = measure_switch_runs(sw, 32, 4000, 0);
  const double bound = sw.parameter_a() * std::log(32.0);
  EXPECT_LE(static_cast<double>(stats.max_off_run), bound);
}

TEST(LogSwitch, S3OnRunsShortOnDiameterTwoGraphs) {
  // Property S3: after constant warm-up, on-runs last at most b = 3 rounds.
  for (const Graph& g : {gen::star(24), gen::complete(24), gen::gnp(48, 0.5, 9)}) {
    ASSERT_TRUE(has_diameter_at_most_2(g));
    RandomizedLogSwitch sw(g, CoinOracle(11));
    const auto stats =
        measure_switch_runs(sw, g.num_vertices(), 3000, /*warmup=*/10);
    EXPECT_LE(stats.max_on_run, 3) << g.summary();
  }
}

TEST(LogSwitch, S2OffRunsLongOnDiameterTwoGraphs) {
  // Property S2: off-runs at least (a/6) ln n; with a = 512 and n = 24 that
  // is ≈ 271 rounds. The lemma is asymptotic (failure probability O(n^-2));
  // at n = 24 a single cycle misses the exact constant a few percent of the
  // time, so the test asserts a conservative half of the bound, which the
  // analysis puts at ~3e-5 per cycle.
  const Graph g = gen::complete(24);
  RandomizedLogSwitch sw(g, CoinOracle(13));
  const auto stats = measure_switch_runs(sw, 24, 20000, /*warmup=*/50);
  const double s2_bound = sw.parameter_a() / 6.0 * std::log(24.0);
  EXPECT_GE(static_cast<double>(stats.min_completed_off_run), 0.5 * s2_bound);
}

TEST(LogSwitch, PathViolatesS3) {
  // On a long path (diameter >> 2) S3 need not hold: distant segments run
  // unsynchronized and some vertex stays on for more than b = 3 rounds.
  const Graph g = gen::path(200);
  RandomizedLogSwitch sw(g, CoinOracle(17));
  const auto stats = measure_switch_runs(sw, 200, 3000, /*warmup=*/10);
  EXPECT_GT(stats.max_on_run, 3);
}

TEST(PeriodicSwitch, CyclesDeterministically) {
  PeriodicSwitch sw(3, 2);
  std::vector<bool> observed;
  for (int i = 0; i < 10; ++i) {
    observed.push_back(sw.on(0));
    sw.step();
  }
  const std::vector<bool> expect = {false, false, false, true, true,
                                    false, false, false, true, true};
  EXPECT_EQ(observed, expect);
}

TEST(PeriodicSwitch, Validation) {
  EXPECT_THROW(PeriodicSwitch(-1, 2), std::invalid_argument);
  EXPECT_THROW(PeriodicSwitch(3, 0), std::invalid_argument);
}

TEST(DegenerateSwitches, AlwaysAndNever) {
  AlwaysOnSwitch on;
  NeverOnSwitch off;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(on.on(0));
    EXPECT_FALSE(off.on(0));
    on.step();
    off.step();
  }
  EXPECT_EQ(on.round(), 5);
  EXPECT_EQ(off.round(), 5);
}

TEST(LogSwitch, GeneralizedMapping) {
  const Graph g = gen::path(2);
  RandomizedLogSwitch sw(PhaseClock::with_random_levels(g, 2, CoinOracle(1)));
  EXPECT_EQ(sw.num_states(), 5);
  sw.clock().force_level(0, 1);
  sw.clock().force_level(1, 2);
  EXPECT_TRUE(sw.on(0));   // level 1 <= d-1 = 1
  EXPECT_FALSE(sw.on(1));  // level 2 > 1
}

TEST(MeasureSwitchRuns, CountsRunsOfPeriodicSwitch) {
  PeriodicSwitch sw(4, 2);
  const auto stats = measure_switch_runs(sw, 1, 60, 0);
  EXPECT_EQ(stats.max_off_run, 4);
  EXPECT_EQ(stats.min_completed_off_run, 4);
  EXPECT_EQ(stats.max_on_run, 2);
}

}  // namespace
}  // namespace ssmis
