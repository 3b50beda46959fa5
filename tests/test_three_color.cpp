#include <gtest/gtest.h>

#include <optional>

#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "reference_processes.hpp"
#include "switch_doubles.hpp"

namespace ssmis {
namespace {

std::vector<ColorG> colors_of(const char* pattern, Vertex n) {
  // 'b' = black, 'w' = white, 'g' = gray.
  std::vector<ColorG> out(static_cast<std::size_t>(n));
  for (Vertex u = 0; u < n; ++u) {
    switch (pattern[u]) {
      case 'b': out[static_cast<std::size_t>(u)] = ColorG::kBlack; break;
      case 'g': out[static_cast<std::size_t>(u)] = ColorG::kGray; break;
      default: out[static_cast<std::size_t>(u)] = ColorG::kWhite; break;
    }
  }
  return out;
}

TEST(ThreeColor, ConstructorValidation) {
  const Graph g = gen::path(3);
  EXPECT_THROW(ThreeColorMIS(g, colors_of("ww", 2),
                             std::make_unique<AlwaysOnSwitch>(), CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(ThreeColorMIS(g, colors_of("www", 3), nullptr, CoinOracle(1)),
               std::invalid_argument);
  auto stale = std::make_unique<AlwaysOnSwitch>();
  stale->step();
  EXPECT_THROW(ThreeColorMIS(g, colors_of("www", 3), std::move(stale), CoinOracle(1)),
               std::invalid_argument);
}

TEST(ThreeColor, EighteenStatesWithRandomizedSwitch) {
  const Graph g = gen::path(4);
  const CoinOracle coins(1);
  auto p = ThreeColorMIS::with_randomized_switch(g, colors_of("wwww", 4), coins);
  // Theorem 3's state count: 3 colors x 6 switch states.
  EXPECT_EQ(p.num_colors() * p.switch_process().num_states(), 18);
}

TEST(ThreeColor, GrayTurnsWhiteWhenSwitchOn) {
  const Graph g = gen::path(2);
  ThreeColorMIS p(g, colors_of("gb", 2), std::make_unique<AlwaysOnSwitch>(),
                  CoinOracle(3));
  p.step();
  EXPECT_EQ(p.color(0), ColorG::kWhite);
}

TEST(ThreeColor, GrayStaysGrayWhenSwitchOff) {
  const Graph g = gen::path(2);
  ThreeColorMIS p(g, colors_of("gb", 2), std::make_unique<NeverOnSwitch>(),
                  CoinOracle(3));
  for (int i = 0; i < 20; ++i) {
    p.step();
    ASSERT_EQ(p.color(0), ColorG::kGray);
  }
}

TEST(ThreeColor, BlackConflictResolvesToBlackOrGray) {
  // Two adjacent blacks: each resamples {black, gray}, never white directly.
  const Graph g = gen::path(2);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    ThreeColorMIS p(g, colors_of("bb", 2), std::make_unique<NeverOnSwitch>(),
                    CoinOracle(seed));
    p.step();
    for (Vertex u = 0; u < 2; ++u)
      EXPECT_NE(p.color(u), ColorG::kWhite) << "seed " << seed;
  }
}

TEST(ThreeColor, GrayIsTreatedAsNonBlackByNeighbors) {
  // 0 gray, 1 white: vertex 1 has no *black* neighbor, so it is active.
  const Graph g = gen::path(2);
  const ThreeColorMIS p(g, colors_of("gw", 2), std::make_unique<NeverOnSwitch>(),
                        CoinOracle(1));
  EXPECT_TRUE(p.engine().active(1));
  EXPECT_FALSE(p.engine().active(0));  // gray never active
}

TEST(ThreeColor, StabilizationRequiresGrayCoverage) {
  // Black set {1} on path 0-1-2 covers gray vertex 0: stabilized. But a
  // gray vertex with no black neighbor must block stabilization.
  const Graph g = gen::path(3);
  const ThreeColorMIS covered(g, colors_of("gbw", 3),
                              std::make_unique<NeverOnSwitch>(), CoinOracle(1));
  EXPECT_TRUE(covered.stabilized());
  const Graph g2 = gen::path(4);
  const ThreeColorMIS uncovered(g2, colors_of("bwwg", 4),
                                std::make_unique<NeverOnSwitch>(), CoinOracle(1));
  EXPECT_FALSE(uncovered.stabilized());
}

TEST(ThreeColor, MatchesReferenceWithPeriodicSwitch) {
  // Differential test against the Definition 28 transcription, driven by a
  // deterministic switch so the color dynamics are isolated.
  const Graph g = gen::gnp(40, 0.15, 71);
  const CoinOracle coins(41);
  std::vector<ColorG> ref = make_init_g(g, InitPattern::kUniformRandom, coins);
  ThreeColorMIS p(g, ref, std::make_unique<PeriodicSwitch>(5, 2), coins);
  PeriodicSwitch shadow(5, 2);
  for (std::int64_t t = 1; t <= 200; ++t) {
    std::vector<char> sigma(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex u = 0; u < g.num_vertices(); ++u) sigma[static_cast<std::size_t>(u)] = shadow.on(u);
    p.step();
    shadow.step();
    ref = testing::reference_step_g(g, ref, sigma, coins, t);
    ASSERT_EQ(p.colors(), ref) << "diverged at round " << t;
  }
}

TEST(ThreeColor, MatchesReferenceWithRandomizedSwitch) {
  // Full-system differential test: colors AND clock levels must both track
  // the naive transcription.
  const Graph g = gen::gnp(30, 0.2, 73);
  const CoinOracle coins(43);
  std::vector<ColorG> ref = make_init_g(g, InitPattern::kUniformRandom, coins);
  auto p = ThreeColorMIS::with_randomized_switch(g, ref, coins);
  const auto* sw = dynamic_cast<const RandomizedLogSwitch*>(&p.switch_process());
  ASSERT_NE(sw, nullptr);
  std::vector<int> ref_levels = sw->clock().levels();
  for (std::int64_t t = 1; t <= 150; ++t) {
    std::vector<char> sigma(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex u = 0; u < g.num_vertices(); ++u)
      sigma[static_cast<std::size_t>(u)] = ref_levels[static_cast<std::size_t>(u)] <= 2;
    p.step();
    ref = testing::reference_step_g(g, ref, sigma, coins, t);
    ref_levels = testing::reference_clock_step(g, ref_levels, coins, t, 3);
    ASSERT_EQ(p.colors(), ref) << "colors diverged at round " << t;
    ASSERT_EQ(sw->clock().levels(), ref_levels) << "levels diverged at round " << t;
  }
}

// The process keeps its own handle on the graph, its phase-clock switch
// included: one built over a Graph that goes out of scope first steps
// exactly like a twin built over a live one.
TEST(ThreeColor, OutlivesTheGraphHandleItWasBuiltOver) {
  const Graph g = gen::gnp(200, 0.03, 79);
  const CoinOracle coins(83);
  const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
  auto twin = ThreeColorMIS::with_randomized_switch(g, init, coins);
  std::optional<ThreeColorMIS> p;
  {
    const Graph scoped = g;
    p.emplace(ThreeColorMIS::with_randomized_switch(scoped, init, coins));
  }
  for (int round = 1; round <= 200; ++round) {
    p->step();
    twin.step();
    ASSERT_EQ(p->colors(), twin.colors()) << "round " << round;
  }
}

TEST(ThreeColor, StabilizesOnCliqueFromAllPatterns) {
  const Graph g = gen::complete(32);
  for (InitPattern pattern : all_init_patterns()) {
    const CoinOracle coins(83);
    auto p = ThreeColorMIS::with_randomized_switch(g, make_init_g(g, pattern, coins), coins);
    const RunResult r = run_until_stabilized(p, 100000);
    ASSERT_TRUE(r.stabilized) << to_string(pattern);
    EXPECT_TRUE(is_mis(g, p.black_set())) << to_string(pattern);
  }
}

TEST(ThreeColor, StabilizesOnGnpDense) {
  const Graph g = gen::gnp(100, 0.4, 89);
  const CoinOracle coins(97);
  auto p = ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 200000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.black_set()));
}

TEST(ThreeColor, BlackSetFrozenAfterStabilization) {
  const Graph g = gen::gnp(40, 0.2, 101);
  const CoinOracle coins(103);
  auto p = ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
  const RunResult r = run_until_stabilized(p, 100000);
  ASSERT_TRUE(r.stabilized);
  const auto mis = p.black_set();
  for (int i = 0; i < 200; ++i) {
    p.step();
    ASSERT_EQ(p.black_set(), mis);
    ASSERT_TRUE(p.stabilized());
  }
}

TEST(ThreeColor, Lemma29GrayImpliesRecentlyActiveBlack) {
  // Lemma 29's mechanism: a vertex becomes gray only from active black. We
  // verify the one-step version: every newly gray vertex was black with a
  // black neighbor in the previous round.
  const Graph g = gen::gnp(40, 0.2, 107);
  const CoinOracle coins(109);
  auto p = ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
  for (int i = 0; i < 150; ++i) {
    std::vector<ColorG> before = p.colors();
    std::vector<bool> was_active_black(40);
    for (Vertex u = 0; u < 40; ++u)
      was_active_black[static_cast<std::size_t>(u)] =
          before[static_cast<std::size_t>(u)] == ColorG::kBlack && p.engine().active(u);
    p.step();
    for (Vertex u = 0; u < 40; ++u) {
      const bool newly_gray = p.color(u) == ColorG::kGray &&
                              before[static_cast<std::size_t>(u)] != ColorG::kGray;
      if (newly_gray) {
        ASSERT_TRUE(was_active_black[static_cast<std::size_t>(u)]) << "vertex " << u;
      }
    }
  }
}

TEST(ThreeColor, GrayCountTracked) {
  const Graph g = gen::path(5);
  ThreeColorMIS p(g, colors_of("ggbww", 5), std::make_unique<NeverOnSwitch>(),
                  CoinOracle(1));
  EXPECT_EQ(p.snapshot().gray, 2);
  p.force_color(0, ColorG::kWhite);
  EXPECT_EQ(p.snapshot().gray, 1);
}

TEST(ThreeColor, WithNeverOnSwitchGrayAbsorbs) {
  // With the switch permanently off, grays are permanent; the process still
  // stabilizes as long as every gray ends up covered. On a clique that is
  // guaranteed once one vertex goes stable black.
  const Graph g = gen::complete(16);
  const CoinOracle coins(113);
  ThreeColorMIS p(g, make_init_g(g, InitPattern::kAllBlack, coins),
                  std::make_unique<NeverOnSwitch>(), coins);
  const RunResult r = run_until_stabilized(p, 100000);
  ASSERT_TRUE(r.stabilized);
  EXPECT_TRUE(is_mis(g, p.black_set()));
}

}  // namespace
}  // namespace ssmis
