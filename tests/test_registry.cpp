// Protocol-registry regression suite.
//
// Two contracts are pinned here:
//   1. The registry-era drivers are BIT-IDENTICAL to the pre-registry ones:
//      golden trajectory fingerprints captured from the enum-era
//      measure_stabilization dispatch and the direct wrapper drivers (at
//      the commit that introduced the registry) must never change, and the
//      three legacy ProcessKind protocols are additionally compared
//      round-by-round against inline transcriptions of the deleted enum
//      dispatch.
//   2. Every registered protocol — current and future — passes the same
//      table-driven smoke: construction, stabilization on a small graph
//      suite, validity of the stabilized output (verify_output, is_mis),
//      storage-independence, and fault recovery. A new workload gets all
//      of this by registering, with zero new test code.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ssg.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "support/hash.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>  // getpid for the storage-case scratch directory
#endif

namespace ssmis {
namespace {

// FNV-1a over the raw per-vertex state bytes of the initial configuration
// and every configuration after each of `steps` steps — the exact procedure
// the pre-registry capture program used on the wrappers' colors()/states().
std::uint64_t trajectory_fingerprint(const std::string& name,
                                     const ProtocolParams& params,
                                     const Graph& g, std::uint64_t seed,
                                     int steps) {
  const auto process = ProtocolRegistry::instance().make(name, g, params, seed);
  std::uint64_t h = kFnv1aBasis;
  const auto fold = [&] {
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      const std::uint8_t b = process->raw_state(u);
      h = fnv1a(h, &b, 1);
    }
  };
  fold();
  for (int i = 0; i < steps; ++i) {
    process->step();
    fold();
  }
  return h;
}

// The golden graph every fingerprint below is pinned on, in each of the
// two storage modes the substrate supports. The mmap'd entry holds its file
// open via the Graph's keep-alive backing; the scratch directory is removed
// before the mapping is read.
struct StorageCase {
  std::string name;
  Graph graph;
};

std::vector<StorageCase> golden_graph_storages() {
  const Graph plain = gen::gnp(96, 0.06, 5);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ssmis_registry_storage_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string v3 = (dir / "golden_v3.ssg").string();
  io::save_ssg(v3, plain);
  std::vector<StorageCase> cases;
  cases.push_back({"plain", plain});
  cases.push_back({"mmap-v3", io::mmap_ssg(v3)});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // unix: mappings outlive the unlink
  return cases;
}

// The pre-registry golden constants (see GoldenTrajectoryFingerprints).
// Factored so the SAME block pins every storage mode: a trajectory on an
// mmap'd graph must be byte-for-byte the trajectory on its owned twin.
void expect_legacy_goldens(const Graph& g, const std::string& where) {
  const std::uint64_t seed = 42;
  const int steps = 48;
  const ProtocolParams none;
  EXPECT_EQ(trajectory_fingerprint("2state", none, g, seed, steps),
            0x9de0932b91ee94fbULL)
      << where;
  EXPECT_EQ(trajectory_fingerprint("2state-variant", none, g, seed, steps),
            0x2f33d9fc6f56c3b1ULL)
      << where;
  EXPECT_EQ(trajectory_fingerprint("3state", none, g, seed, steps),
            0xd41fe9dc85ac7cfbULL)
      << where;
  EXPECT_EQ(trajectory_fingerprint("3color", none, g, seed, steps),
            0xe7f52e1e33a1f6d4ULL)
      << where;
  EXPECT_EQ(trajectory_fingerprint("daemon", none, g, seed, steps),
            0x9de0932b91ee94fbULL)  // synchronous daemon == 2state
      << where;
  ProtocolParams subset;
  subset.set("daemon", "random");
  subset.set("rho", "0.7");
  EXPECT_EQ(trajectory_fingerprint("daemon", subset, g, seed, steps),
            0xda2fedf113e676daULL)
      << where;
  EXPECT_EQ(trajectory_fingerprint("beeping", none, g, seed, steps),
            0x9de0932b91ee94fbULL)  // lossless beeping == 2state
      << where;
  EXPECT_EQ(trajectory_fingerprint("stoneage", none, g, seed, steps),
            0xd41fe9dc85ac7cfbULL)  // stone-age == 3state
      << where;
}

// The non-default bias source: a constant q with the deterministic
// white -> black move.
void expect_eager_variant_golden(const Graph& g, const std::string& where) {
  ProtocolParams eager;
  eager.set("black-bias", "0.3");
  eager.set("eager-white", "1");
  EXPECT_EQ(trajectory_fingerprint("2state-variant", eager, g, 42, 48),
            0xbfa38ab4bfc21049ULL)
      << where;
}

TEST(Registry, AllSevenLegacyProtocolsRegistered) {
  const auto& registry = ProtocolRegistry::instance();
  for (const char* name : {"2state", "2state-variant", "3state", "3color",
                           "daemon", "beeping", "stoneage"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.describe(name).empty()) << name;
  }
  EXPECT_EQ(registry.names().size(), 7U);
}

// Golden fingerprints captured from the PRE-registry drivers (gnp(96, 0.06,
// graph seed 5), trial seed 42, uniform-random init, 48 steps). The first
// seven pin bit-identity with the deleted enum-era/direct drivers; the
// structural equalities (beeping == 2state, stoneage == 3state, synchronous
// daemon == 2state) were true pre-refactor and must survive. The same
// constants are re-asserted on every storage mode of the same graph below
// (CrossRepresentationStorageKeepsTheGoldens).
TEST(Registry, GoldenTrajectoryFingerprints) {
  expect_legacy_goldens(gen::gnp(96, 0.06, 5), "plain");
}

// Pinned from the bias source's introduction.
TEST(Registry, EagerVariantGoldenFingerprint) {
  expect_eager_variant_golden(gen::gnp(96, 0.06, 5), "plain");
}

// The bit-identity contract across the graph substrate: mmap'd storage is
// a pure representation change, so the PRE-registry golden constants must
// come out of it unchanged — not merely "equal to plain today", equal to
// the constants pinned at the registry refactor.
TEST(Registry, CrossRepresentationStorageKeepsTheGoldens) {
  for (const StorageCase& storage : golden_graph_storages()) {
    expect_legacy_goldens(storage.graph, storage.name);
    expect_eager_variant_golden(storage.graph, storage.name);
  }
}

// Table-driven over every registered protocol — current and future: each
// one must produce the identical trajectory on owned and mmap'd-v3 storage
// of the same graph. A new workload gets this proof by registering, with
// zero new test code.
TEST(Registry, CrossRepresentationBitIdentityForEveryProtocol) {
  const auto storages = golden_graph_storages();
  const ProtocolParams none;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const std::uint64_t baseline =
        trajectory_fingerprint(name, none, storages.front().graph, 42, 48);
    for (const StorageCase& storage : storages) {
      ASSERT_EQ(trajectory_fingerprint(name, none, storage.graph, 42, 48),
                baseline)
          << name << " diverged on " << storage.name;
    }
  }
}

// FNV-1a over everything the harness reads through Process, round by round:
// each vertex's raw_state and settled, every snapshot() field, stabilized()
// and output_set(). After steps 16 and 32 a fixed burst of 12 faults (its
// vertices and words from CoinOracle(7)) hits the process, and each fault
// folds `true`, the flag inject_fault returned while a protocol could find
// nothing to corrupt, so the pinned constants stay put.
std::uint64_t process_surface_fingerprint(const std::string& name,
                                          const ProtocolParams& params,
                                          const Graph& g) {
  const auto p = ProtocolRegistry::instance().make(name, g, params, 42);
  const CoinOracle faults(7);
  std::uint64_t h = kFnv1aBasis;
  const auto fold = [&h](std::int64_t x) { h = fnv1a(h, &x, sizeof x); };
  const auto fold_round = [&] {
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      fold(p->raw_state(u));
      fold(p->settled(u));
    }
    const RoundStats s = p->snapshot();
    for (const std::int64_t x :
         {s.round, std::int64_t{s.black}, std::int64_t{s.active},
          std::int64_t{s.stable_black}, std::int64_t{s.unstable},
          std::int64_t{s.gray}})
      fold(x);
    fold(p->stabilized());
    const std::vector<Vertex> out = p->output_set();
    fold(static_cast<std::int64_t>(out.size()));
    for (const Vertex u : out) fold(u);
  };
  fold_round();
  for (int step = 1; step <= 48; ++step) {
    p->step();
    if (step == 16 || step == 32) {
      for (Vertex i = 0; i < 12; ++i) {
        const Vertex u = static_cast<Vertex>(
            faults.word(step, i, CoinTag::kFault) %
            static_cast<std::uint64_t>(g.num_vertices()));
        p->inject_fault(u, faults.word(step, i, CoinTag::kNoise));
        fold(true);
      }
    }
    fold_round();
  }
  return h;
}

// The Process surface on the golden graph (gnp(96, 0.06, 5), seed 42, 48
// steps): every registered protocol with default options, plus the
// generalized switch and a lossy beeping channel. Captured at the commit
// before the wrappers became EngineProcess subclasses; a refactor of the
// output, settled, snapshot or fault paths must leave every constant put.
TEST(Registry, ProcessSurfaceGoldenFingerprints) {
  const Graph g = gen::gnp(96, 0.06, 5);
  struct Case {
    const char* name;
    const char* key;  // one option, or nullptr for the defaults
    const char* value;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {"2state", nullptr, nullptr, 0x70356b3f22dfaeabULL},
      {"2state-variant", nullptr, nullptr, 0xd5434a90011ccda5ULL},
      {"3color", nullptr, nullptr, 0x92711239b387f2c3ULL},
      {"3color", "switch-d", "2", 0x9f635b34f460d880ULL},
      // Re-captured when drain() began materializing before it refreshes:
      // the old value carried stale active flags that fast-forward left
      // behind (the fast-forward-off run always read this one).
      {"3state", nullptr, nullptr, 0xe9c775ef1839a3edULL},
      {"beeping", nullptr, nullptr, 0x70356b3f22dfaeabULL},
      {"beeping", "loss", "0.02", 0xc351ea5b6785abd8ULL},
      {"daemon", nullptr, nullptr, 0x70356b3f22dfaeabULL},
      {"stoneage", nullptr, nullptr, 0x4f107e22ff195386ULL},
  };
  std::size_t defaults = 0;
  for (const Case& c : cases) {
    ProtocolParams params;
    if (c.key != nullptr) params.set(c.key, c.value);
    defaults += c.key == nullptr ? 1 : 0;
    const std::uint64_t got = process_surface_fingerprint(c.name, params, g);
    EXPECT_EQ(got, c.golden) << c.name << (c.key ? " " : "")
                             << (c.key ? c.key : "") << ": got 0x" << std::hex
                             << got;
  }
  // A protocol registered later needs its own row.
  EXPECT_EQ(defaults, ProtocolRegistry::instance().names().size());
}

// Fast-forward is a schedule, not a semantics: with it on and off, every
// protocol that declares the option reads the same Process surface through
// the fault bursts, the snapshot aggregates included.
TEST(Registry, ProcessSurfaceSameWithFastForwardOnAndOff) {
  const Graph g = gen::gnp(96, 0.06, 5);
  int declaring = 0;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const auto& opts = ProtocolRegistry::instance().options(name);
    if (std::find(opts.begin(), opts.end(), "fast-forward") == opts.end()) continue;
    ++declaring;
    ProtocolParams on, off;
    on.set("fast-forward", "1");
    off.set("fast-forward", "0");
    EXPECT_EQ(process_surface_fingerprint(name, on, g),
              process_surface_fingerprint(name, off, g))
        << name;
  }
  EXPECT_GT(declaring, 0);
}

// Round-by-round comparison against inline transcriptions of the deleted
// ProcessKind dispatch (the exact construction run_one used per kind).
TEST(Registry, BitIdenticalToEnumEraDrivers) {
  const Graph g = gen::gnp(128, 0.05, 9);
  const ProtocolParams params;
  for (std::uint64_t seed : {1ull, 7ull}) {
    {
      const CoinOracle coins(seed);
      TwoStateMIS direct(g, make_init2(g, InitPattern::kUniformRandom, coins),
                         coins);
      const auto p = ProtocolRegistry::instance().make("2state", g, params, seed);
      for (int r = 0; r < 60; ++r) {
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          ASSERT_EQ(p->raw_state(u),
                    static_cast<std::uint8_t>(direct.color(u)))
              << "2state diverged at round " << r << " vertex " << u;
        direct.step();
        p->step();
      }
    }
    {
      const CoinOracle coins(seed);
      ThreeStateMIS direct(g, make_init3(g, InitPattern::kUniformRandom, coins),
                           coins);
      const auto p = ProtocolRegistry::instance().make("3state", g, params, seed);
      for (int r = 0; r < 60; ++r) {
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          ASSERT_EQ(p->raw_state(u),
                    static_cast<std::uint8_t>(direct.color(u)))
              << "3state diverged at round " << r << " vertex " << u;
        direct.step();
        p->step();
      }
    }
    {
      const CoinOracle coins(seed);
      auto direct = ThreeColorMIS::with_randomized_switch(
          g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
      const auto p = ProtocolRegistry::instance().make("3color", g, params, seed);
      for (int r = 0; r < 60; ++r) {
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          ASSERT_EQ(p->raw_state(u),
                    static_cast<std::uint8_t>(direct.color(u)))
              << "3color diverged at round " << r << " vertex " << u;
        direct.step();
        p->step();
      }
    }
  }
}

// --- table-driven: every registered protocol, present and future ----------

struct SmokeGraph {
  const char* name;
  Graph graph;
};

std::vector<SmokeGraph> smoke_suite() {
  std::vector<SmokeGraph> suite;
  suite.push_back({"path33", gen::path(33)});
  suite.push_back({"K17", gen::complete(17)});
  suite.push_back({"gnp64", gen::gnp(64, 0.1, 11)});
  suite.push_back({"C5", gen::cycle(5)});
  return suite;
}

TEST(Registry, EveryProtocolConstructsAndDescribes) {
  const Graph g = gen::gnp(32, 0.1, 3);
  const ProtocolParams params;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const auto p = ProtocolRegistry::instance().make(name, g, params, 1);
    ASSERT_NE(p, nullptr) << name;
    // The process runs on g itself: its graph handle shares g's storage.
    EXPECT_EQ(p->graph().adjacency().data(), g.adjacency().data()) << name;
    EXPECT_EQ(p->round(), 0) << name;
    EXPECT_GE(p->num_colors(), 2) << name;
    const RoundStats s = p->snapshot();
    EXPECT_EQ(s.round, 0) << name;
    EXPECT_NE(ProtocolRegistry::instance().describe(name).find(name), std::string::npos)
        << name;
  }
}

TEST(Registry, EveryProtocolStabilizesValidlyOnSmokeSuite) {
  for (const auto& cell : smoke_suite()) {
    for (const std::string& name : ProtocolRegistry::instance().names()) {
      // measure_stabilization verifies every stabilized trial's output via
      // the protocol's own predicate (it throws on an invalid success).
      MeasureConfig config;
      config.protocol = name;
      config.trials = 3;
      config.seed = 101;
      config.max_rounds = 500000;
      const Measurements m = measure_stabilization(cell.graph, config);
      EXPECT_EQ(m.timeouts, 0) << name << " on " << cell.name;
    }
  }
}

TEST(Registry, OutputSetsMatchTheProtocolsOwnPredicates) {
  const Graph g = gen::gnp(60, 0.08, 13);
  const ProtocolParams params;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const auto p = ProtocolRegistry::instance().make(name, g, params, 5);
    const RunResult r = p->run(500000, TraceMode::kNone);
    ASSERT_TRUE(r.stabilized) << name;
    EXPECT_NO_THROW(p->verify_output()) << name;
    EXPECT_FALSE(p->output_set().empty()) << name;  // g has edges everywhere
    EXPECT_TRUE(is_mis(g, p->output_set())) << name;
    // settled() must cover the whole graph at the fixed point.
    for (Vertex u = 0; u < g.num_vertices(); ++u)
      EXPECT_TRUE(p->settled(u)) << name << " vertex " << u;
  }
}

TEST(Registry, EveryProtocolRecoversFromInjectedFaults) {
  const Graph g = gen::gnp(48, 0.12, 19);
  const ProtocolParams params;
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const auto p = ProtocolRegistry::instance().make(name, g, params, 23);
    ASSERT_TRUE(p->run(500000, TraceMode::kNone).stabilized) << name;
    const CoinOracle coins(71);
    int corrupted = 0;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      if (!coins.bernoulli(0, u, CoinTag::kFault, 0.5)) continue;
      p->inject_fault(u, coins.word(1, u, CoinTag::kFault));
      ++corrupted;
    }
    ASSERT_GT(corrupted, 0);
    ASSERT_TRUE(p->run(500000, TraceMode::kNone).stabilized)
        << name << " did not re-stabilize";
    EXPECT_NO_THROW(p->verify_output()) << name;
  }
}

// --- error handling: typos must be loud -----------------------------------

// A typo, and the retired `matching` and `priority` protocols: each is
// just an unknown name.
TEST(Registry, UnknownProtocolThrowsListingNames) {
  const Graph g = gen::path(4);
  const ProtocolParams params;
  for (const std::string name : {"2sate", "matching", "priority"}) {
    try {
      ProtocolRegistry::instance().make(name, g, params, 1);
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("2state"), std::string::npos) << what;  // the valid list
    }
  }
}

TEST(Registry, UnknownProtocolOptionThrowsListingValidOnes) {
  const Graph g = gen::path(4);
  ProtocolParams params;
  params.set("black-bais", "0.3");  // typo'd black-bias
  try {
    ProtocolRegistry::instance().make("2state-variant", g, params, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("black-bais"), std::string::npos);
    EXPECT_NE(what.find("black-bias"), std::string::npos);
  }
  // Protocols that take no options say so.
  ProtocolParams stray;
  stray.set("loss", "0.1");
  EXPECT_THROW(ProtocolRegistry::instance().make("2state", g, stray, 1),
               std::invalid_argument);
  // beeping declares no fast-forward knob: its automaton has no orbits, so
  // the setting would do nothing.
  ProtocolParams ff;
  ff.set("fast-forward", "0");
  EXPECT_THROW(ProtocolRegistry::instance().make("beeping", g, ff, 1),
               std::invalid_argument);
}

TEST(Registry, MalformedOptionValuesThrow) {
  const Graph g = gen::path(4);
  ProtocolParams params;
  params.set("black-bias", "zz");
  EXPECT_THROW(ProtocolRegistry::instance().make("2state-variant", g, params, 1),
               std::invalid_argument);
  // A NaN loss probability fails the range check instead of running
  // lossless.
  ProtocolParams nan_loss;
  nan_loss.set("loss", "nan");
  EXPECT_THROW(ProtocolRegistry::instance().make("beeping", g, nan_loss, 1),
               std::invalid_argument);
  // Removed daemon kinds are unknown values, not silent aliases.
  ProtocolParams pairs;
  pairs.set("daemon", "pairs");
  EXPECT_THROW(ProtocolRegistry::instance().make("daemon", g, pairs, 1),
               std::invalid_argument);
  // --proto-switch-d outside [1, 253] fails loudly, naming the option: -3
  // and 0 (no clock), 254 (top level d + 2 past a byte), 2^31 - 1 (d + 3
  // overflows) and 2^32 + 3 (an int cast would wrap it to 3).
  for (const char* d : {"-3", "0", "254", "2147483647", "4294967299"}) {
    ProtocolParams bad;
    bad.set("switch-d", d);
    try {
      (void)ProtocolRegistry::instance().make("3color", g, bad, 1);
      ADD_FAILURE() << "switch-d=" << d << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("switch-d"), std::string::npos)
          << e.what();
    }
  }
  ProtocolParams ok;
  ok.set("switch-d", "253");
  EXPECT_NO_THROW((void)ProtocolRegistry::instance().make("3color", g, ok, 1));
}

TEST(Registry, DuplicateRegistrationThrows) {
  ProtocolRegistry local;
  const auto factory = [](const Graph&, const ProtocolParams&, std::uint64_t) {
    return std::unique_ptr<Process>();
  };
  local.add("x", "first", {}, factory);
  EXPECT_THROW(local.add("x", "second", {}, factory), std::logic_error);
  EXPECT_EQ(local.names(), std::vector<std::string>{"x"});
}

// The harness wraps every registered protocol: traced runs and per-vertex
// settle tables work for names the enum era could not express.
TEST(Registry, HarnessTracesNonEnumEraProtocols) {
  const Graph g = gen::gnp(40, 0.12, 29);
  for (const char* name : {"beeping", "daemon"}) {
    MeasureConfig config;
    config.protocol = name;
    config.seed = 7;
    config.max_rounds = 500000;
    const RunResult r = traced_run(g, config);
    ASSERT_TRUE(r.stabilized) << name;
    ASSERT_FALSE(r.trace.empty()) << name;
    EXPECT_EQ(r.trace.back().round, r.rounds) << name;
  }
}

}  // namespace
}  // namespace ssmis
