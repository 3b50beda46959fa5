// Engine invariant and differential tests.
//
// 1. Invariant cross-check: the engine's incrementally maintained state —
//    per-vertex neighbor counters, the active-set worklist, and the O(1)
//    aggregates (num_active, num_stable_black, num_unstable, histogram) —
//    is compared against brute-force recomputation from the raw colors,
//    every round, on random graphs, and under random force_color fault
//    injection between rounds. Every rule is covered, the network rules
//    included: the engine re-evaluates only vertices whose hearing changed,
//    so a missed zero crossing shows up here as a stale flag.
//
// 2. Differential check: the engine-backed processes must produce
//    bit-identical color trajectories to the seed semantics (the naive
//    Definition 4/5 transcriptions in reference_processes.hpp), including
//    across force_color faults.
//
// 3. Coverage on demand: a process whose stable-black coverage is first
//    read late (after faults applied while it was off) reports exactly
//    what its twin reading it from round 0 reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"
#include "reference_processes.hpp"
#include "rng/coin_oracle.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

// ---------------------------------------------------------------- helpers --

// Brute-force mirror of the engine state for any rule, recomputed from
// colors alone.
template <typename Engine>
void expect_engine_consistent(const Engine& e, const std::string& context) {
  const Graph& g = e.graph();
  const auto& rule = e.rule();
  const Vertex n = g.num_vertices();
  const int k = rule.num_counters();

  // Counters.
  std::vector<Vertex> want_cnt(static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 0);
  for (Vertex u = 0; u < n; ++u) {
    for (int j = 0; j < k; ++j) {
      const Vertex c = rule.contribution(e.color(u), j);
      if (c == 0) continue;
      for (Vertex v : g.neighbors(u))
        want_cnt[static_cast<std::size_t>(v) * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(j)] += c;
    }
  }
  for (Vertex u = 0; u < n; ++u) {
    for (int j = 0; j < k; ++j) {
      ASSERT_EQ(e.counter(u, j),
                want_cnt[static_cast<std::size_t>(u) * static_cast<std::size_t>(k) +
                         static_cast<std::size_t>(j)])
          << context << ": counter " << j << " of vertex " << u;
    }
  }

  // Histogram.
  std::vector<Vertex> want_hist(static_cast<std::size_t>(rule.num_colors()), 0);
  for (Vertex u = 0; u < n; ++u)
    ++want_hist[static_cast<std::size_t>(static_cast<std::uint8_t>(e.color(u)))];
  for (int c = 0; c < rule.num_colors(); ++c) {
    ASSERT_EQ(e.color_count(static_cast<typename Engine::Color>(c)),
              want_hist[static_cast<std::size_t>(c)])
        << context << ": histogram bucket " << c;
  }

  // Worklist ∪ parked = scheduled predicate, exactly and disjointly.
  // (Fast-forwarded vertices are parked off the live worklist but remain
  // logically scheduled; for non-ff rules fast_forwarded(u) is always
  // false and this degenerates to worklist == scheduled.)
  Vertex want_scheduled = 0;
  for (Vertex u = 0; u < n; ++u) {
    const bool want = rule.scheduled(e.color(u), Heard::of(e.counters(u), k));
    const bool live = e.worklist().contains(u);
    const bool parked = e.fast_forwarded(u);
    ASSERT_EQ(e.scheduled(u), want) << context << ": scheduled flag of " << u;
    ASSERT_EQ(live || parked, want) << context << ": worklist/parked entry " << u;
    ASSERT_FALSE(live && parked) << context << ": doubly tracked " << u;
    if (want) ++want_scheduled;
  }
  ASSERT_EQ(e.num_scheduled(), want_scheduled) << context;

  // Stability aggregates.
  Vertex want_active = 0, want_violations = 0, want_stable = 0;
  std::vector<char> covered(static_cast<std::size_t>(n), 0);
  for (Vertex u = 0; u < n; ++u) {
    const auto c = e.color(u);
    const Heard h = Heard::of(e.counters(u), k);
    const bool active = rule.active(c, h);
    const bool stable = rule.stable_black(c, h);
    ASSERT_EQ(e.active(u), active) << context << ": active flag of " << u;
    ASSERT_EQ(e.stable_black(u), stable) << context << ": stable flag of " << u;
    if (active) ++want_active;
    if (rule.violating(c, h)) ++want_violations;
    if (stable) {
      ++want_stable;
      covered[static_cast<std::size_t>(u)] = 1;
      for (Vertex v : g.neighbors(u)) covered[static_cast<std::size_t>(v)] = 1;
    }
  }
  Vertex want_unstable = 0;
  for (Vertex u = 0; u < n; ++u) {
    ASSERT_EQ(e.unstable(u), covered[static_cast<std::size_t>(u)] == 0)
        << context << ": unstable flag of " << u;
    if (!covered[static_cast<std::size_t>(u)]) ++want_unstable;
  }
  ASSERT_EQ(e.num_active(), want_active) << context;
  ASSERT_EQ(e.num_violations(), want_violations) << context;
  ASSERT_EQ(e.num_stable_black(), want_stable) << context;
  ASSERT_EQ(e.num_unstable(), want_unstable) << context;
  ASSERT_EQ(e.stabilized(), want_violations == 0) << context;
}

std::string ctx(const char* name, const Graph& g, int round) {
  return std::string(name) + " " + g.summary() + " round " + std::to_string(round);
}

// ------------------------------------------------------- invariant checks --

TEST(EngineInvariants, TwoStateUnderSteppingAndFaults) {
  const std::vector<Graph> graphs = {gen::gnp(60, 0.08, 3), gen::complete(20),
                                     gen::random_tree(50, 5), Graph::from_edges(5, {})};
  const CoinOracle fault_coins(999);
  for (const Graph& g : graphs) {
    const CoinOracle coins(11);
    TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
    expect_engine_consistent(p.engine(), ctx("2-state init", g, 0));
    for (int round = 1; round <= 60; ++round) {
      p.step();
      expect_engine_consistent(p.engine(), ctx("2-state", g, round));
      // A burst of random transient faults every few rounds.
      if (round % 7 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
          p.force_color(u, fault_coins.fair_coin(round, u, CoinTag::kFault)
                               ? Color2::kBlack
                               : Color2::kWhite);
        }
        expect_engine_consistent(p.engine(), ctx("2-state post-fault", g, round));
      }
    }
  }
}

TEST(EngineInvariants, ThreeStateUnderSteppingAndFaults) {
  const std::vector<Graph> graphs = {gen::gnp(50, 0.1, 7), gen::star(17),
                                     gen::cycle(23)};
  const CoinOracle fault_coins(1000);
  for (const Graph& g : graphs) {
    const CoinOracle coins(13);
    ThreeStateMIS p(g, make_init3(g, InitPattern::kUniformRandom, coins), coins);
    for (int round = 1; round <= 60; ++round) {
      p.step();
      expect_engine_consistent(p.engine(), ctx("3-state", g, round));
      if (round % 9 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
          p.force_color(u, static_cast<Color3>(
                               fault_coins.word(round, u, CoinTag::kFault) % 3));
        }
        expect_engine_consistent(p.engine(), ctx("3-state post-fault", g, round));
      }
    }
  }
}

TEST(EngineInvariants, ThreeColorUnderSteppingAndFaults) {
  const std::vector<Graph> graphs = {gen::gnp(40, 0.15, 17), gen::complete(14)};
  const CoinOracle fault_coins(1001);
  for (const Graph& g : graphs) {
    const CoinOracle coins(19);
    auto p = ThreeColorMIS::with_randomized_switch(
        g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
    for (int round = 1; round <= 60; ++round) {
      p.step();
      expect_engine_consistent(p.engine(), ctx("3-color", g, round));
      if (round % 8 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
          p.force_color(u, static_cast<ColorG>(
                               fault_coins.word(round, u, CoinTag::kFault) % 3));
        }
        expect_engine_consistent(p.engine(), ctx("3-color post-fault", g, round));
      }
    }
  }
}

TEST(EngineInvariants, TwoStateVariantUnderStepping) {
  const Graph g = gen::gnp(50, 0.1, 23);
  const CoinOracle coins(29);
  TwoStateMIS p(g, make_init2(g, InitPattern::kAlternating, coins),
                TwoStateRule(coins, 0.3, true));
  for (int round = 1; round <= 80; ++round) {
    p.step();
    expect_engine_consistent(p.engine(), ctx("variant", g, round));
  }
}

// The beeping rule: lossless, then a loss probability switched on mid-run
// (set_loss_probability re-derives the schedule through
// notify_rule_changed), with fault bursts throughout.
TEST(EngineInvariants, BeepingLosslessThenLossy) {
  const std::vector<Graph> graphs = {gen::gnp(60, 0.08, 71), gen::complete(16),
                                     gen::star(21)};
  const CoinOracle fault_coins(1004);
  const TwoStateBeepAutomaton automaton;
  for (const Graph& g : graphs) {
    const CoinOracle coins(73);
    std::vector<std::uint8_t> init;
    for (const Color2 c : make_init2(g, InitPattern::kUniformRandom, coins))
      init.push_back(TwoStateBeepAutomaton::encode(c));
    BeepingNetwork net(g, automaton, init, coins);
    expect_engine_consistent(net.engine(), ctx("beeping init", g, 0));
    for (int round = 1; round <= 60; ++round) {
      if (round == 25) {
        net.set_loss_probability(0.3);
        expect_engine_consistent(net.engine(), ctx("beeping lossy", g, round));
      }
      net.step();
      expect_engine_consistent(net.engine(), ctx("beeping", g, round));
      if (round % 8 == 0) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
          net.force_color(u, static_cast<std::uint8_t>(
                                 fault_coins.word(round, u, CoinTag::kFault) % 2));
        }
        expect_engine_consistent(net.engine(), ctx("beeping post-fault", g, round));
      }
    }
  }
}

// The stone-age rule is the multi-counter one: a state change moves two
// channel counters, each of which may cross zero. Both automata run with
// fast-forward on, off, and toggled every few rounds, under fault bursts;
// the 3-color automaton announces on 18 channels.
TEST(EngineInvariants, StoneAgeFastForwardOnOffAndFaults) {
  const std::vector<Graph> graphs = {gen::gnp(50, 0.1, 79), gen::cycle(19),
                                     gen::complete(12)};
  const CoinOracle fault_coins(1005);
  const ThreeStateStoneAgeAutomaton three_state;
  const ThreeColorStoneAgeAutomaton three_color;
  const std::vector<const StoneAgeAutomaton*> automata = {&three_state, &three_color};
  enum class Mode { kOn, kOff, kToggled };
  for (const StoneAgeAutomaton* automaton : automata) {
    const auto states = static_cast<std::uint64_t>(automaton->num_states());
    for (const Mode mode : {Mode::kOn, Mode::kOff, Mode::kToggled}) {
      for (const Graph& g : graphs) {
        const CoinOracle coins(83);
        std::vector<std::uint8_t> init;
        for (Vertex u = 0; u < g.num_vertices(); ++u)
          init.push_back(static_cast<std::uint8_t>(
              coins.word(0, u, CoinTag::kInit) % states));
        StoneAgeNetwork net(g, *automaton, init, coins);
        net.set_fast_forward(mode != Mode::kOff);
        const std::string name = "stone-age/" + std::to_string(states) + " mode " +
                                 std::to_string(static_cast<int>(mode));
        expect_engine_consistent(net.engine(), ctx(name.c_str(), g, 0));
        for (int round = 1; round <= 60; ++round) {
          if (mode == Mode::kToggled && round % 5 == 0)
            net.set_fast_forward(!net.engine().fast_forward_enabled());
          net.step();
          expect_engine_consistent(net.engine(), ctx(name.c_str(), g, round));
          if (round % 9 == 0) {
            for (Vertex u = 0; u < g.num_vertices(); ++u) {
              if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
              net.force_color(u, static_cast<std::uint8_t>(
                                     fault_coins.word(round, u, CoinTag::kFault) % states));
            }
            expect_engine_consistent(net.engine(), ctx(name.c_str(), g, round));
          }
        }
      }
    }
  }
}

// The engine's subset-transition primitive (the daemon path) must uphold
// the same invariants and reject non-scheduled vertices. A twin engine gets
// each chosen list followed by its own reversal, so every vertex appears
// twice: duplicates are transitioned once, so the twins stay identical.
TEST(EngineInvariants, SubsetTransitions) {
  const Graph g = gen::gnp(40, 0.12, 31);
  const CoinOracle coins(37);
  ProcessEngine<TwoStateRule> e(g, make_init2(g, InitPattern::kAllBlack, coins),
                                TwoStateRule(coins));
  ProcessEngine<TwoStateRule> twin(g, make_init2(g, InitPattern::kAllBlack, coins),
                                   TwoStateRule(coins));
  const CoinOracle pick(41);
  for (int step = 1; step <= 200 && !e.stabilized(); ++step) {
    const auto enabled = e.scheduled_set();
    std::vector<Vertex> chosen;
    for (Vertex u : enabled)
      if (pick.bernoulli(step, u, CoinTag::kScheduler, 0.5)) chosen.push_back(u);
    if (chosen.empty()) chosen = enabled;
    std::vector<Vertex> doubled = chosen;
    doubled.insert(doubled.end(), chosen.rbegin(), chosen.rend());
    e.apply_transitions({chosen.data(), chosen.size()}, step);
    twin.apply_transitions({doubled.data(), doubled.size()}, step);
    expect_engine_consistent(e, ctx("subset", g, step));
    expect_engine_consistent(twin, ctx("subset twin", g, step));
    ASSERT_EQ(twin.colors(), e.colors()) << ctx("subset twin", g, step);
  }
  // Activating a non-scheduled vertex is a daemon bug, not a silent no-op.
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (e.scheduled(u)) continue;
    const std::vector<Vertex> bad = {u};
    EXPECT_THROW(e.apply_transitions({bad.data(), bad.size()}, 1000),
                 std::logic_error);
    break;
  }
}

// ----------------------------------------------------- differential checks --

TEST(EngineDifferential, TwoStateMatchesReferenceAcrossFaults) {
  const Graph g = gen::gnp(45, 0.12, 43);
  const CoinOracle coins(47);
  std::vector<Color2> ref = make_init2(g, InitPattern::kUniformRandom, coins);
  TwoStateMIS p(g, ref, coins);
  const CoinOracle fault_coins(1002);
  for (std::int64_t t = 1; t <= 120; ++t) {
    p.step();
    ref = testing::reference_step2(g, ref, coins, t);
    ASSERT_EQ(p.colors(), ref) << "diverged at round " << t;
    if (t % 11 == 0) {
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        if (!fault_coins.bernoulli(t, u, CoinTag::kFault, 0.15)) continue;
        const Color2 c = fault_coins.fair_coin(t, u, CoinTag::kFault)
                             ? Color2::kBlack
                             : Color2::kWhite;
        p.force_color(u, c);
        ref[static_cast<std::size_t>(u)] = c;
      }
    }
  }
}

TEST(EngineDifferential, ThreeStateMatchesReferenceAcrossFaults) {
  const Graph g = gen::gnp(45, 0.12, 53);
  const CoinOracle coins(59);
  std::vector<Color3> ref = make_init3(g, InitPattern::kUniformRandom, coins);
  ThreeStateMIS p(g, ref, coins);
  const CoinOracle fault_coins(1003);
  for (std::int64_t t = 1; t <= 120; ++t) {
    p.step();
    ref = testing::reference_step3(g, ref, coins, t);
    ASSERT_EQ(p.colors(), ref) << "diverged at round " << t;
    if (t % 13 == 0) {
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        if (!fault_coins.bernoulli(t, u, CoinTag::kFault, 0.15)) continue;
        const Color3 c =
            static_cast<Color3>(fault_coins.word(t, u, CoinTag::kFault) % 3);
        p.force_color(u, c);
        ref[static_cast<std::size_t>(u)] = c;
      }
    }
  }
}

// The constant-bias source (q, with and without eager white) draws on the
// kAblation coin stream: check it against an inline transcription.
TEST(EngineDifferential, VariantMatchesInlineReference) {
  const Graph g = gen::gnp(40, 0.15, 61);
  const CoinOracle coins(67);
  for (const bool eager : {false, true}) {
    const double q = 0.35;
    std::vector<Color2> ref = make_init2(g, InitPattern::kUniformRandom, coins);
    TwoStateMIS p(g, ref, TwoStateRule(coins, q, eager));
    for (std::int64_t t = 1; t <= 100; ++t) {
      std::vector<Color2> next = ref;
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        bool has_black_nbr = false;
        for (Vertex v : g.neighbors(u))
          if (ref[static_cast<std::size_t>(v)] == Color2::kBlack) has_black_nbr = true;
        const bool is_b = ref[static_cast<std::size_t>(u)] == Color2::kBlack;
        if (!(is_b ? has_black_nbr : !has_black_nbr)) continue;  // not active
        bool to_black;
        if (eager && !is_b) {
          to_black = true;
        } else {
          to_black = coins.bernoulli(t, u, CoinTag::kAblation, q);
        }
        next[static_cast<std::size_t>(u)] = to_black ? Color2::kBlack : Color2::kWhite;
      }
      p.step();
      ref = next;
      ASSERT_EQ(p.colors(), ref) << "eager=" << eager << " round " << t;
    }
  }
}

// force_color must be an exact no-op when the color is unchanged, and must
// validate its arguments.
TEST(Engine, ForceColorValidation) {
  const Graph g = gen::path(4);
  const CoinOracle coins(1);
  TwoStateMIS p(g, std::vector<Color2>(4, Color2::kWhite), coins);
  EXPECT_THROW(p.force_color(-1, Color2::kBlack), std::out_of_range);
  EXPECT_THROW(p.force_color(4, Color2::kBlack), std::out_of_range);
  const auto before = p.colors();
  p.force_color(2, Color2::kWhite);  // same color: no-op
  EXPECT_EQ(p.colors(), before);
  expect_engine_consistent(p.engine(), "force_color no-op");
}

// Engine-level construction validation.
TEST(Engine, ConstructionValidation) {
  const Graph g = gen::path(3);
  const CoinOracle coins(1);
  EXPECT_THROW(ProcessEngine<TwoStateRule>(g, std::vector<Color2>(2, Color2::kWhite),
                                           TwoStateRule(coins)),
               std::invalid_argument);
}

// A rule whose contributions can go negative would break the zero-crossing
// test, so the engine rejects it at construction.
struct NegativeRule {
  using Color = std::uint8_t;
  int num_colors() const { return 2; }
  int num_counters() const { return 1; }
  Vertex contribution(Color c, int) const { return c == 1 ? -1 : 0; }
  bool scheduled(Color, Heard) const { return false; }
  Color transition(Vertex, Color c, Heard, std::int64_t) const { return c; }
  bool active(Color, Heard) const { return false; }
  bool violating(Color, Heard) const { return false; }
  bool stable_black(Color, Heard) const { return false; }
};

TEST(Engine, RejectsNegativeContributions) {
  const Graph g = gen::path(3);
  EXPECT_THROW(ProcessEngine<NegativeRule>(g, {0, 1, 0}, NegativeRule{}),
               std::invalid_argument);
}

// A rule whose contribution summed over n - 1 neighbors overflows a
// counter: construction's packed sweeps would lose a lane to a carry.
struct HeavyRule : NegativeRule {
  Vertex contribution(Color c, int) const { return c == 1 ? Vertex{1} << 30 : 0; }
};

TEST(Engine, RejectsOverflowingContributions) {
  EXPECT_NO_THROW(ProcessEngine<HeavyRule>(gen::path(2), {0, 1}, HeavyRule{}));
  EXPECT_THROW(ProcessEngine<HeavyRule>(gen::path(3), {0, 1, 0}, HeavyRule{}),
               std::invalid_argument);
}

// ---------------------------------------------------------- construction --

// Three counters, so construction's last packed sweep has an empty high
// lane. Each color adds 0, 1 or 2 to each counter, differently per
// counter, so a swapped or shifted lane shows up as a wrong count.
struct ThreeCounterRule {
  using Color = std::uint8_t;
  int num_colors() const { return 4; }
  int num_counters() const { return 3; }
  Vertex contribution(Color c, int j) const { return (c + j) % 3; }
  bool scheduled(Color c, Heard h) const { return c != 0 || h.has(2); }
  Color transition(Vertex u, Color c, Heard h, std::int64_t t) const {
    return static_cast<Color>((c + u + t + (h.has(0) ? 1 : 0)) % 4);
  }
  bool active(Color c, Heard h) const { return scheduled(c, h); }
  bool violating(Color c, Heard h) const { return c == 1 && h.has(1); }
  bool stable_black(Color c, Heard h) const { return c == 1 && !h.has(1); }
};

// Every counter of `e` equals the sum of its neighbors' contributions under
// `colors`, recomputed one counter at a time (any storage).
template <typename Engine>
void expect_counters_recomputed(const Engine& e,
                                const std::vector<typename Engine::Color>& colors,
                                const std::string& context) {
  const Graph& g = e.graph();
  const int k = e.rule().num_counters();
  for (int j = 0; j < k; ++j) {
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      Vertex want = 0;
      g.for_each_neighbor(u, [&](Vertex v) {
        want += e.rule().contribution(colors[static_cast<std::size_t>(v)], j);
      });
      ASSERT_EQ(e.counter(u, j), want) << context << ": counter " << j << " of " << u;
    }
  }
}

// The same state, read without syncing first: which vertices are parked,
// scheduled, active and stable black.
template <typename Engine>
void expect_same_flags(const Engine& a, const Engine& b, const std::string& context) {
  for (Vertex u = 0; u < a.graph().num_vertices(); ++u) {
    ASSERT_EQ(a.fast_forwarded(u), b.fast_forwarded(u)) << context << ": parked " << u;
    ASSERT_EQ(a.scheduled(u), b.scheduled(u)) << context << ": scheduled " << u;
    ASSERT_EQ(a.active(u), b.active(u)) << context << ": active " << u;
    ASSERT_EQ(a.stable_black(u), b.stable_black(u)) << context << ": stable " << u;
  }
}

template <typename Engine>
void expect_same_counters(const Engine& a, const Engine& b, const std::string& context) {
  for (Vertex u = 0; u < a.graph().num_vertices(); ++u)
    for (int j = 0; j < a.rule().num_counters(); ++j)
      ASSERT_EQ(a.counter(u, j), b.counter(u, j)) << context << ": counter " << j << " of " << u;
}

std::vector<Graph> construction_graphs() {
  std::vector<Edge> star;  // the hub's row spans several sweep chunks
  for (Vertex v = 1; v <= 600; ++v) star.emplace_back(0, v);
  return {gen::gnp(300, 0.05, 131), gen::complete(40), Graph::from_edges(601, star),
          gen::gnp(200, 0.01, 137), Graph::from_edges(0, {})};
}

std::vector<std::uint8_t> random_states(const Graph& g, int states, const CoinOracle& coins) {
  std::vector<std::uint8_t> init;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    init.push_back(static_cast<std::uint8_t>(coins.word(0, u, CoinTag::kInit) %
                                             static_cast<std::uint64_t>(states)));
  return init;
}

// Counters right after construction equal a per-counter recomputation, on
// plain and compressed storage alike: k = 3 (an empty last high lane),
// 3-state (one packed pair), and the 3-state and 18-channel stone-age
// automata (one and nine pairs).
TEST(EngineConstruction, CountersMatchPerCounterRecomputation) {
  const CoinOracle coins(139);
  const ThreeStateStoneAgeAutomaton three_state;
  const ThreeColorStoneAgeAutomaton three_color;
  for (const Graph& plain : construction_graphs()) {
    const Graph compressed = Graph::compress(plain);
    const auto check = [&](const auto& a, const auto& b, const auto& init,
                           const std::string& name) {
      const std::string context = name + " " + plain.summary();
      expect_same_flags(a, b, context + " plain/compressed");
      expect_counters_recomputed(a, init, context);
      expect_counters_recomputed(b, init, context + " compressed");
      expect_same_counters(a, b, context + " plain/compressed");
    };
    {
      const auto init = random_states(plain, 4, coins);
      const ProcessEngine<ThreeCounterRule> a(plain, init, {});
      const ProcessEngine<ThreeCounterRule> b(compressed, init, {});
      check(a, b, init, "three-counter");
      expect_engine_consistent(a, "three-counter " + plain.summary());
    }
    {
      const auto init = make_init3(plain, InitPattern::kUniformRandom, coins);
      const ThreeStateMIS a(plain, init, coins);
      const ThreeStateMIS b(compressed, init, coins);
      check(a.engine(), b.engine(), init, "3-state");
    }
    for (const StoneAgeAutomaton* automaton :
         std::vector<const StoneAgeAutomaton*>{&three_state, &three_color}) {
      const auto init = random_states(plain, automaton->num_states(), coins);
      const StoneAgeNetwork a(plain, *automaton, init, coins);
      const StoneAgeNetwork b(compressed, *automaton, init, coins);
      check(a.engine(), b.engine(), init,
            "stone-age/" + std::to_string(automaton->num_states()));
    }
  }
}

// A vertex is parked exactly when it is scheduled, the rule declares its
// (color, hearing) an orbit, its color is the orbit's color this round —
// and fast-forward is on. Which vertices are parked is read first: the
// exact-state reads that follow materialize parked vertices, which leaves
// their colors as they are in the round they were parked in, but
// re-derives where they sit.
template <typename Engine>
void expect_parked_where_declared(const Engine& e, const std::string& context) {
  const Graph& g = e.graph();
  const auto& rule = e.rule();
  const int k = rule.num_counters();
  std::vector<bool> parked;
  for (Vertex u = 0; u < g.num_vertices(); ++u) parked.push_back(e.fast_forwarded(u));
  const auto& colors = e.colors();
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    std::vector<Vertex> cnt(static_cast<std::size_t>(k), 0);
    for (const Vertex v : g.neighbors(u))
      for (int j = 0; j < k; ++j)
        cnt[static_cast<std::size_t>(j)] +=
            rule.contribution(colors[static_cast<std::size_t>(v)], j);
    const auto c = colors[static_cast<std::size_t>(u)];
    const Heard h = Heard::of(cnt.data(), k);
    const bool want = e.fast_forward_enabled() && rule.scheduled(c, h) &&
                      rule.fast_forwardable(c, h) && rule.orbit_color(u, c, e.round()) == c;
    ASSERT_EQ(parked[static_cast<std::size_t>(u)], want) << context << ": vertex " << u;
  }
  expect_engine_consistent(e, context);
}

// Right after construction, and after notify_rule_changed with fast-forward
// on and off, for 3-state and both stone-age automata (the 18-channel one
// declares no orbit, so nothing may be parked there).
TEST(EngineConstruction, ParksExactlyWhereTheRuleDeclaresAnOrbit) {
  const CoinOracle coins(157);
  const ThreeStateStoneAgeAutomaton three_state;
  const ThreeColorStoneAgeAutomaton three_color;
  const auto exercise = [](auto& e, const std::string& name) {
    expect_parked_where_declared(e, name + " construction");
    for (int round = 1; round <= 6; ++round) e.step();
    e.notify_rule_changed();
    expect_parked_where_declared(e, name + " notify, fast-forward on");
    e.set_fast_forward(false);
    e.notify_rule_changed();
    expect_parked_where_declared(e, name + " notify, fast-forward off");
    for (int round = 1; round <= 3; ++round) e.step();
    e.set_fast_forward(true);
    e.notify_rule_changed();
    expect_parked_where_declared(e, name + " notify, fast-forward on again");
  };
  for (const Graph& g : {gen::gnp(300, 0.02, 163), gen::cycle(31), gen::complete(12),
                         Graph::from_edges(9, {{0, 1}})}) {
    ProcessEngine<ThreeStateRule> e3(g, make_init3(g, InitPattern::kUniformRandom, coins),
                                     ThreeStateRule(coins));
    exercise(e3, "3-state " + g.summary());
    for (const StoneAgeAutomaton* automaton :
         std::vector<const StoneAgeAutomaton*>{&three_state, &three_color}) {
      ProcessEngine<StoneAgeRule> e(g, random_states(g, automaton->num_states(), coins),
                                    StoneAgeRule(automaton, coins));
      exercise(e, "stone-age/" + std::to_string(automaton->num_states()) + " " +
                      g.summary());
    }
  }
}

// black_set() materializes the parked stable blacks with one bulk sync.
// A twin that reads color(u) for every u, one materialization per parked
// vertex, must be left in the same state, and both go on identically.
TEST(EngineConstruction, BlackSetLeavesTheStatePerVertexReadsLeave) {
  const Graph g = gen::gnp(400, 0.02, 167);
  const CoinOracle coins(173);
  const auto init = make_init3(g, InitPattern::kUniformRandom, coins);
  ThreeStateMIS bulk(g, init, coins);
  ThreeStateMIS single(g, init, coins);
  Vertex parked_at_reads = 0;
  for (int round = 1; round <= 40; ++round) {
    bulk.step();
    single.step();
    const std::string context = "round " + std::to_string(round);
    if (round % 5 == 0) {
      parked_at_reads += bulk.engine().num_fast_forwarded();
      const std::vector<Vertex> black = bulk.black_set();
      std::vector<Vertex> want;
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        if (is_black(single.color(u))) want.push_back(u);
      ASSERT_EQ(black, want) << context;
      expect_same_flags(bulk.engine(), single.engine(), context);
      expect_same_counters(bulk.engine(), single.engine(), context);
      expect_engine_consistent(bulk.engine(), context);
    }
    ASSERT_EQ(bulk.colors(), single.colors()) << context;
  }
  EXPECT_GT(parked_at_reads, 0) << "the reads must find parked vertices";
}

// --------------------------------------------------- coverage on demand --

// What a Process reports about coverage in one round: the trace snapshot
// and the settled flag of every vertex (for the MIS family, u ∈ N+(I_t)).
struct CoverageView {
  RoundStats stats;
  std::vector<bool> settled;
};

CoverageView coverage_view(const Process& p) {
  CoverageView view{p.snapshot(), {}};
  for (Vertex u = 0; u < p.graph().num_vertices(); ++u)
    view.settled.push_back(p.settled(u));
  return view;
}

void expect_same_view(const CoverageView& a, const CoverageView& b,
                      const std::string& where) {
  EXPECT_EQ(a.stats.round, b.stats.round) << where;
  EXPECT_EQ(a.stats.black, b.stats.black) << where;
  EXPECT_EQ(a.stats.active, b.stats.active) << where;
  EXPECT_EQ(a.stats.stable_black, b.stats.stable_black) << where;
  EXPECT_EQ(a.stats.unstable, b.stats.unstable) << where;
  EXPECT_EQ(a.stats.gray, b.stats.gray) << where;
  ASSERT_EQ(a.settled, b.settled) << where;
}

// Coverage is off until its first reader builds it. One twin reads it from
// round 0; the other first reads it at round kFirstRead, after a fault
// burst applied while its coverage was off. From then on both must report
// the same snapshots and settled flags every round.
TEST(CoverageOnDemand, LateFirstReadMatchesRoundZeroRead) {
  const Graph g = gen::gnp(90, 0.06, 103);
  const CoinOracle fault_coins(1006);
  constexpr int kFirstRead = 5;
  for (const std::string name :
       {"2state", "3state", "3color", "daemon", "matching", "beeping", "stoneage"}) {
    const ProtocolParams params = with_init({}, InitPattern::kUniformRandom);
    const auto early = ProtocolRegistry::instance().make(name, g, params, 107);
    const auto late = ProtocolRegistry::instance().make(name, g, params, 107);
    early->set_fast_forward(true);
    late->set_fast_forward(true);
    (void)early->snapshot();
    for (int round = 1; round <= 40; ++round) {
      early->step();
      late->step();
      if (round == 2) {
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.3)) continue;
          const auto raw = static_cast<std::uint8_t>(
              fault_coins.word(round, u, CoinTag::kFault) %
              static_cast<std::uint64_t>(early->num_colors()));
          early->force_state(u, raw);
          late->force_state(u, raw);
        }
      }
      const CoverageView want = coverage_view(*early);
      if (round < kFirstRead) continue;
      expect_same_view(want, coverage_view(*late),
                       name + " round " + std::to_string(round));
    }
  }
}

// The V_t set agrees too, for a 2-state twin built late.
TEST(CoverageOnDemand, TwoStateUnstableSetAfterLateBuild) {
  const Graph g = gen::gnp(70, 0.07, 109);
  const CoinOracle coins(113);
  const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
  TwoStateMIS early(g, init, coins);
  TwoStateMIS late(g, init, coins);
  (void)early.num_unstable();
  for (int round = 1; round <= 30 && !early.stabilized(); ++round) {
    early.step();
    late.step();
    if (round == 1) {
      early.force_color(0, Color2::kBlack);
      late.force_color(0, Color2::kBlack);
    }
    if (round < 3) {
      (void)early.num_unstable();
      continue;
    }
    const auto unstable_set = [](const TwoStateMIS& p) {
      return p.engine().select([&p](Vertex u) { return p.engine().unstable(u); });
    };
    EXPECT_EQ(unstable_set(late), unstable_set(early)) << "round " << round;
    EXPECT_EQ(late.num_unstable(), early.num_unstable()) << "round " << round;
  }
}

// Per-vertex stabilization times read coverage from round 0. Their tables
// are pinned to the values the engine produced when coverage was built
// eagerly at construction, and for the networks to the values their own
// O(deg) settled walks produced before the engine kept their bookkeeping.
TEST(CoverageOnDemand, VertexStabilizationTimesUnchanged) {
  const Graph g = gen::gnp(150, 0.04, 127);
  struct Pinned {
    std::string protocol;
    std::string option;  // "" or "key=value"
    std::uint64_t fnv;
  };
  const std::vector<Pinned> pinned = {
      {"2state", "", 0x1ffaa2dc546f7a60ULL},
      {"3state", "", 0x4e1b08cbedf08a83ULL},
      {"3color", "", 0xd2834a8844bc6755ULL},
      {"daemon", "", 0x1ffaa2dc546f7a60ULL},
      {"matching", "", 0xa5da9b51569c43a0ULL},
      {"beeping", "", 0x1ffaa2dc546f7a60ULL},
      {"beeping", "loss=0.02", 0x88259b7a626b9a83ULL},
      {"stoneage", "fast-forward=1", 0x4e1b08cbedf08a83ULL},
      {"stoneage", "fast-forward=0", 0x4e1b08cbedf08a83ULL}};
  for (const Pinned& row : pinned) {
    MeasureConfig config;
    config.protocol = row.protocol;
    if (!row.option.empty()) {
      const std::size_t eq = row.option.find('=');
      config.params.set(row.option.substr(0, eq), row.option.substr(eq + 1));
    }
    config.seed = 131;
    config.max_rounds = 100000;
    const std::vector<std::int64_t> times = vertex_stabilization_times(g, config);
    const std::uint64_t got =
        fnv1a(kFnv1aBasis, times.data(), times.size() * sizeof(std::int64_t));
    EXPECT_EQ(got, row.fnv) << row.protocol << " " << row.option;
  }
}

}  // namespace
}  // namespace ssmis
