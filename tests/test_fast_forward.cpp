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
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"
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

// Fault storms against a parked MIS: the optimized process and its
// unoptimized twin absorb identical inject_fault calls deep in the
// fast-forwarded regime, and every round in between — including the storm
// rounds themselves — must agree on all per-vertex states and aggregates.
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
      // Periodic storms, dense enough that re-faulted vertices and whole
      // re-activated neighborhoods overlap across consecutive storms.
      if (t % 60 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(t, u, CoinTag::kFault, 0.25)) continue;
          const std::uint64_t w = fault_coins.word(t, u, CoinTag::kFault);
          ASSERT_EQ(opt->inject_fault(u, w), ref->inject_fault(u, w))
              << name << " fault acceptance diverged at " << t << "/" << u;
        }
      }
      // Edge-local perturbation: a single-vertex flip adjacent to the
      // parked set exercises the exact one-neighbor re-activation edge.
      if (t % 97 == 0) {
        const Vertex u = static_cast<Vertex>(
            fault_coins.word(t, 0, CoinTag::kFault) %
            static_cast<std::uint64_t>(g.num_vertices()));
        const std::uint64_t w = fault_coins.word(t, 1, CoinTag::kFault);
        ASSERT_EQ(opt->inject_fault(u, w), ref->inject_fault(u, w)) << name;
      }
      opt->step();
      ref->step();
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        ASSERT_EQ(opt->raw_state(u), ref->raw_state(u))
            << name << " state diverged at round " << t << " vertex " << u;
      const RoundStats a = opt->snapshot();
      const RoundStats b = ref->snapshot();
      ASSERT_EQ(a.black, b.black) << name << " round " << t;
      ASSERT_EQ(a.active, b.active) << name << " round " << t;
      ASSERT_EQ(a.stable_black, b.stable_black) << name << " round " << t;
      ASSERT_EQ(a.unstable, b.unstable) << name << " round " << t;
      ASSERT_EQ(a.gray, b.gray) << name << " round " << t;
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

}  // namespace
}  // namespace ssmis
