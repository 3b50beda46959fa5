// Stable-periodic fast-forward correctness battery.
//
// The engine's fast-forward (core/engine.hpp) and the 3-color lazy switch
// (core/three_color.hpp) are SCHEDULE optimizations: they must never change
// a single bit of any trajectory, any aggregate, or any failure mode. Three
// contracts are pinned here:
//
//   1. Long-horizon bit-identity: every registered protocol that declares
//      the fast-forward knob runs >= 10x its stabilization time with the
//      optimization on and off, and the round-by-round fingerprints over
//      (raw per-vertex state + every snapshot aggregate) must match
//      exactly.
//
//   2. Adversarial re-activation: faults injected while the MIS sits parked
//      in periodic orbits — including repeated hits on the same vertices —
//      must wake exactly the right neighborhoods. The optimized process is
//      compared round-by-round against an unoptimized twin through several
//      fault storms and recovery windows.
//
//   3. Logical aggregates under bulk advance: num_active / num_stable_black
//      / num_unstable / histogram counts reported with vertices parked must
//      equal the unoptimized twin's values every round (the physical
//      worklist is allowed to be empty; the logical answers are not).
//
// Below them, every shipped orbit is checked against the FastForwardRule
// contract itself, and a vertex forced off its orbit's color must stay
// live until its first color change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_state.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"
#include "rng/coin_oracle.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

bool declares_fast_forward(const std::string& name) {
  const auto& opts = ProtocolRegistry::instance().options(name);
  return std::find(opts.begin(), opts.end(), "fast-forward") != opts.end();
}

ProtocolParams ff_params(bool on) {
  ProtocolParams params;
  params.set("fast-forward", on ? "1" : "0");
  return params;
}

// Folds the full observable surface of one round into a running FNV-1a
// hash: every vertex's raw state plus every aggregate the snapshot
// reports. A fast-forward bug that corrupts either a parked orbit or a
// logical counter lands here as a fingerprint mismatch.
std::uint64_t fold_round(std::uint64_t h, const Process& p) {
  for (Vertex u = 0; u < p.graph().num_vertices(); ++u) {
    const std::uint8_t b = p.raw_state(u);
    h = fnv1a(h, &b, 1);
  }
  const RoundStats s = p.snapshot();
  h = fnv1a(h, &s.round, sizeof(s.round));
  h = fnv1a(h, &s.black, sizeof(s.black));
  h = fnv1a(h, &s.active, sizeof(s.active));
  h = fnv1a(h, &s.stable_black, sizeof(s.stable_black));
  h = fnv1a(h, &s.unstable, sizeof(s.unstable));
  h = fnv1a(h, &s.gray, sizeof(s.gray));
  return h;
}

std::uint64_t long_horizon_fingerprint(const std::string& name,
                                       const ProtocolParams& params,
                                       const Graph& g, std::uint64_t seed,
                                       std::int64_t rounds) {
  const auto p = ProtocolRegistry::instance().make(name, g, params, seed);
  std::uint64_t h = fold_round(kFnv1aBasis, *p);
  for (std::int64_t i = 0; i < rounds; ++i) {
    p->step();
    h = fold_round(h, *p);
  }
  return h;
}

// Horizon >= 10x the protocol's own stabilization time on this (graph,
// seed), so the overwhelming majority of the compared rounds run in the
// parked/fast-forwarded regime the optimization actually changes.
std::int64_t deep_horizon(const std::string& name, const Graph& g,
                          std::uint64_t seed) {
  const auto p =
      ProtocolRegistry::instance().make(name, g, ProtocolParams(), seed);
  const RunResult r = p->run(500000, TraceMode::kNone);
  EXPECT_TRUE(r.stabilized) << name;
  return std::max<std::int64_t>(10 * r.rounds, 300);
}

TEST(FastForward, LongHorizonBitIdenticalForEveryProtocol) {
  const Graph g = gen::gnp(300, 0.03, 7);
  const std::uint64_t seed = 42;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    if (!declares_fast_forward(name)) continue;
    const std::int64_t horizon = deep_horizon(name, g, seed);
    ASSERT_EQ(
        long_horizon_fingerprint(name, ff_params(true), g, seed, horizon),
        long_horizon_fingerprint(name, ff_params(false), g, seed, horizon))
        << name << " fast-forward diverged over " << horizon << " rounds";
  }
}

// The snapshot aggregates of two processes, read before anything else
// reads them: a per-vertex exact-state read materializes parked vertices,
// which could hide a stale flag that the aggregates carry.
void expect_same_snapshot(const Process& a, const Process& b, const std::string& where) {
  const RoundStats x = a.snapshot();
  const RoundStats y = b.snapshot();
  ASSERT_EQ(x.black, y.black) << where;
  ASSERT_EQ(x.active, y.active) << where;
  ASSERT_EQ(x.stable_black, y.stable_black) << where;
  ASSERT_EQ(x.unstable, y.unstable) << where;
  ASSERT_EQ(x.gray, y.gray) << where;
}

// Fault storms against a parked MIS: the optimized process and its
// unoptimized twin absorb identical inject_fault calls deep in the
// fast-forwarded regime. Each storm lands right after a step, while the
// parked vertices still hold the colors they were last materialized with,
// a round behind, so a fault's drain materializes them itself. After every
// step and every fault the twins must agree on the snapshot aggregates,
// compared first, and at the end of each round on all per-vertex states.
TEST(FastForward, AdversarialFaultsMidFastForwardMatchUnoptimizedTwin) {
  const Graph g = gen::gnp(200, 0.04, 11);
  const CoinOracle fault_coins(4242);
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    if (!declares_fast_forward(name)) continue;
    const auto opt = ProtocolRegistry::instance().make(name, g, ff_params(true), 9);
    const auto ref = ProtocolRegistry::instance().make(name, g, ff_params(false), 9);
    // Park the system: run well past stabilization.
    ASSERT_TRUE(opt->run(500000, TraceMode::kNone).stabilized) << name;
    ASSERT_TRUE(ref->run(500000, TraceMode::kNone).stabilized) << name;
    for (int i = 0; i < 50; ++i) {
      opt->step();
      ref->step();
    }
    for (std::int64_t t = 1; t <= 400; ++t) {
      opt->step();
      ref->step();
      ASSERT_NO_FATAL_FAILURE(
          expect_same_snapshot(*opt, *ref, name + " round " + std::to_string(t)));
      // Periodic storms, dense enough that re-faulted vertices and whole
      // re-activated neighborhoods overlap across consecutive storms.
      if (t % 60 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(t, u, CoinTag::kFault, 0.25)) continue;
          const std::uint64_t w = fault_coins.word(t, u, CoinTag::kFault);
          opt->inject_fault(u, w);
          ref->inject_fault(u, w);
          ASSERT_NO_FATAL_FAILURE(expect_same_snapshot(
              *opt, *ref, name + " after fault " + std::to_string(t) + "/" + std::to_string(u)));
        }
      }
      // Edge-local perturbation: a single-vertex flip adjacent to the
      // parked set exercises the exact one-neighbor re-activation edge.
      if (t % 97 == 0) {
        const Vertex u = static_cast<Vertex>(
            fault_coins.word(t, 0, CoinTag::kFault) %
            static_cast<std::uint64_t>(g.num_vertices()));
        const std::uint64_t w = fault_coins.word(t, 1, CoinTag::kFault);
        opt->inject_fault(u, w);
        ref->inject_fault(u, w);
        ASSERT_NO_FATAL_FAILURE(expect_same_snapshot(
            *opt, *ref, name + " after flip " + std::to_string(t) + "/" + std::to_string(u)));
      }
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        ASSERT_EQ(opt->raw_state(u), ref->raw_state(u))
            << name << " state diverged at round " << t << " vertex " << u;
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        ASSERT_EQ(opt->settled(u), ref->settled(u))
            << name << " settled diverged at round " << t << " vertex " << u;
    }
  }
}

// Toggling the optimization off mid-run materializes every parked orbit;
// the process must land exactly on the unoptimized twin's state and keep
// matching from there (and re-enabling must stay matched too).
TEST(FastForward, MidRunToggleLandsOnUnoptimizedTrajectory) {
  const Graph g = gen::gnp(150, 0.05, 13);
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    if (!declares_fast_forward(name)) continue;
    const auto opt = ProtocolRegistry::instance().make(name, g, ff_params(true), 21);
    const auto ref = ProtocolRegistry::instance().make(name, g, ff_params(false), 21);
    ASSERT_TRUE(opt->run(500000, TraceMode::kNone).stabilized) << name;
    ASSERT_TRUE(ref->run(500000, TraceMode::kNone).stabilized) << name;
    for (int phase = 0; phase < 4; ++phase) {
      opt->set_fast_forward(phase % 2 == 0);
      for (int i = 0; i < 40; ++i) {
        opt->step();
        ref->step();
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          ASSERT_EQ(opt->raw_state(u), ref->raw_state(u))
              << name << " phase " << phase << " step " << i << " vertex " << u;
      }
    }
  }
}

// ------------------------------------------------------ orbit contract --

// ProcessEngine rejects a rule that names a fast-forward member but misses
// the concept. A rule that lost both names would switch fast-forward off
// without a failing test, so the shipped orbit rules are named here.
static_assert(FastForwardRule<ThreeStateRule> &&
              FastForwardRule<StoneAgeRule<ThreeStateStoneAgeAutomaton>>);

// Every hearing some set of neighbor colors produces. The bit masks no
// neighborhood produces (3-state's "black1 but no black") are left out:
// the contract says nothing about them.
template <typename Rule>
std::set<std::uint32_t> reachable_hearings(const Rule& rule) {
  const int colors = rule.num_colors();
  const int k = rule.num_counters();
  std::set<std::uint32_t> out;
  for (std::uint32_t present = 0; present < (1u << colors); ++present) {
    std::vector<Vertex> cnt(static_cast<std::size_t>(k), 0);
    for (int c = 0; c < colors; ++c) {
      if (((present >> c) & 1u) == 0) continue;
      for (int j = 0; j < k; ++j)
        cnt[static_cast<std::size_t>(j)] +=
            rule.contribution(static_cast<typename Rule::Color>(c), j);
    }
    out.insert(Heard::of(cnt.data(), k).bits());
  }
  return out;
}

// For every reachable hearing h and every pair c, c2 that h makes
// fast_forwardable: stepping c2 lands where the orbit of c says, on the
// orbit again, and the predicates and MIS membership agree across it.
template <typename Rule>
void expect_memoryless_orbits(const Rule& rule, const std::string& name) {
  using Color = typename Rule::Color;
  const int colors = rule.num_colors();
  int pairs = 0;
  for (const std::uint32_t bits : reachable_hearings(rule)) {
    const Heard h(bits);
    for (int a = 0; a < colors; ++a) {
      const auto c = static_cast<Color>(a);
      if (!rule.fast_forwardable(c, h)) continue;
      for (int b = 0; b < colors; ++b) {
        const auto c2 = static_cast<Color>(b);
        if (!rule.fast_forwardable(c2, h)) continue;
        ++pairs;
        const std::string where = name + " hearing " + std::to_string(bits) + " colors " +
                                  std::to_string(a) + "," + std::to_string(b);
        ASSERT_TRUE(rule.scheduled(c, h)) << where;
        ASSERT_EQ(rule.scheduled(c2, h), rule.scheduled(c, h)) << where;
        ASSERT_EQ(rule.active(c2, h), rule.active(c, h)) << where;
        // Under one hearing, this keeps the engine's violation and
        // stable-black flags constant too: it derives them from in_mis.
        ASSERT_EQ(rule.in_mis(c2), rule.in_mis(c)) << where;
        for (Vertex u = 0; u < 64; ++u) {
          for (std::int64_t t = 1; t <= 64; ++t) {
            const Color next = rule.transition(u, c2, h, t);
            ASSERT_EQ(static_cast<int>(next), static_cast<int>(rule.orbit_color(u, c, t)))
                << where << " vertex " << u << " round " << t;
            ASSERT_TRUE(rule.fast_forwardable(next, h))
                << where << " vertex " << u << " round " << t;
          }
        }
      }
    }
  }
  EXPECT_GT(pairs, 0) << name << " declares no orbit";
}

TEST(OrbitContract, ShippedOrbitsAreMemoryless) {
  const CoinOracle coins(181);
  expect_memoryless_orbits(ThreeStateRule(coins), "3-state");
  expect_memoryless_orbits(StoneAgeRule(ThreeStateStoneAgeAutomaton{}, coins), "stone-age/3");
}

// A stable black forced onto the other black color is off its orbit for
// this round: it stays live, and parks at its first color change. A twin
// with fast-forward off, faulted the same way, matches it every round.
template <typename P>
void expect_off_orbit_black_parks_at_first_change(
    const std::function<std::unique_ptr<P>()>& make,
    const std::function<bool(typename P::Color)>& is_black, const std::string& name) {
  const auto opt = make();
  const auto ref = make();
  ref->set_fast_forward(false);
  ASSERT_TRUE(opt->run(500000, TraceMode::kNone).stabilized) << name;
  ASSERT_TRUE(ref->run(500000, TraceMode::kNone).stabilized) << name;
  Vertex u = 0;
  while (u < opt->graph().num_vertices() && !opt->engine().fast_forwarded(u)) ++u;
  ASSERT_LT(u, opt->graph().num_vertices()) << name << ": nothing parked";
  const auto on_orbit = opt->color(u);
  ASSERT_TRUE(is_black(on_orbit)) << name;
  // The other black color: the 3-state encodings put black0 and black1 at
  // raw values 1 and 2.
  const auto off_orbit = static_cast<typename P::Color>(3 - static_cast<int>(on_orbit));
  const Vertex parked_before = opt->engine().num_fast_forwarded();
  opt->force_color(u, off_orbit);
  ref->force_color(u, off_orbit);
  ASSERT_FALSE(opt->engine().fast_forwarded(u)) << name;
  ASSERT_EQ(opt->engine().num_fast_forwarded(), parked_before - 1) << name;
  auto last = off_orbit;
  bool changed = false;
  for (int round = 1; round <= 64 && !changed; ++round) {
    opt->step();
    ref->step();
    const bool parked = opt->engine().fast_forwarded(u);
    const auto now = opt->color(u);
    changed = now != last;
    ASSERT_EQ(parked, changed) << name << " round " << round;
    last = now;
    ASSERT_EQ(opt->colors(), ref->colors()) << name << " round " << round;
  }
  ASSERT_TRUE(changed) << name << ": no color change in 64 rounds";
  for (int round = 1; round <= 16; ++round) {
    opt->step();
    ref->step();
    ASSERT_EQ(opt->colors(), ref->colors()) << name << " after parking, round " << round;
  }
}

TEST(OrbitContract, OffOrbitBlackParksAtItsFirstColorChange) {
  const Graph g = gen::gnp(200, 0.03, 191);
  const CoinOracle coins(193);
  expect_off_orbit_black_parks_at_first_change<ThreeStateMIS>(
      [&] {
        return std::make_unique<ThreeStateMIS>(
            g, make_init3(g, InitPattern::kUniformRandom, coins), coins);
      },
      [](Color3 c) { return is_black(c); }, "3-state");
  using Network = StoneAgeNetwork<ThreeStateStoneAgeAutomaton>;
  expect_off_orbit_black_parks_at_first_change<Network>(
      [&] {
        std::vector<std::uint8_t> init;
        for (const Color3 c : make_init3(g, InitPattern::kUniformRandom, coins))
          init.push_back(ThreeStateStoneAgeAutomaton::encode(c));
        return std::make_unique<Network>(g, ThreeStateStoneAgeAutomaton{}, std::move(init),
                                         coins);
      },
      [](std::uint8_t s) { return ThreeStateStoneAgeAutomaton{}.in_mis(s); }, "stone-age/3");
}

}  // namespace
}  // namespace ssmis
