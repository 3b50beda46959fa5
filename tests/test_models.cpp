#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/init.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"
#include "models/stone_age.hpp"

namespace ssmis {
namespace {

std::vector<std::uint8_t> encode2(const std::vector<Color2>& colors) {
  std::vector<std::uint8_t> out(colors.size());
  for (std::size_t i = 0; i < colors.size(); ++i)
    out[i] = TwoStateBeepAutomaton::encode(colors[i]);
  return out;
}

std::vector<std::uint8_t> encode3(const std::vector<Color3>& colors) {
  std::vector<std::uint8_t> out(colors.size());
  for (std::size_t i = 0; i < colors.size(); ++i)
    out[i] = ThreeStateStoneAgeAutomaton::encode(colors[i]);
  return out;
}

TEST(BeepingNetwork, ValidatesInit) {
  const Graph g = gen::path(3);
  const TwoStateBeepAutomaton automaton;
  EXPECT_THROW(BeepingNetwork(g, automaton, {0, 1}, CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(BeepingNetwork(g, automaton, {0, 1, 7}, CoinOracle(1)),
               std::invalid_argument);
}

TEST(BeepingNetwork, BeepAccounting) {
  const Graph g = gen::path(3);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, {1, 0, 1}, CoinOracle(1));
  net.step();
  EXPECT_EQ(net.beeps_last_round(), 2);  // the two black nodes beeped
  EXPECT_EQ(net.total_beeps(), 2);
}

TEST(BeepingEquivalence, TwoStateBitIdenticalOnSuite) {
  // The headline model theorem: the beeping-model execution IS the 2-state
  // process execution, coin for coin, on every graph and seed tested.
  const std::vector<Graph> graphs = {
      gen::complete(16), gen::path(40),        gen::star(15),
      gen::cycle(21),    gen::gnp(60, 0.1, 3), gen::random_tree(50, 4),
      Graph::from_edges(4, {}),
  };
  const TwoStateBeepAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init2(g, InitPattern::kUniformRandom, coins);
      TwoStateMIS direct(g, init, coins);
      BeepingNetwork net(g, automaton, encode2(init), coins);
      for (int round = 0; round < 200; ++round) {
        direct.step();
        net.step();
        ASSERT_EQ(net.colors(), encode2(direct.colors()))
            << g.summary() << " seed " << seed << " round " << round;
      }
    }
  }
}

TEST(BeepingEquivalence, ClaimedMisMatchesBlackSet) {
  const Graph g = gen::gnp(50, 0.1, 5);
  const CoinOracle coins(9);
  const auto init = make_init2(g, InitPattern::kAllBlack, coins);
  TwoStateMIS direct(g, init, coins);
  const TwoStateBeepAutomaton automaton;
  BeepingNetwork net(g, automaton, encode2(init), coins);
  for (int i = 0; i < 500 && !direct.stabilized(); ++i) {
    direct.step();
    net.step();
  }
  ASSERT_TRUE(direct.stabilized());
  EXPECT_EQ(net.black_set(), direct.black_set());
  EXPECT_TRUE(is_mis(g, net.black_set()));
}

TEST(StoneAgeNetwork, ValidatesInitAndChannels) {
  const Graph g = gen::path(3);
  const ThreeStateStoneAgeAutomaton automaton;
  EXPECT_THROW(StoneAgeNetwork(g, automaton, {0, 1}, CoinOracle(1)),
               std::invalid_argument);
  EXPECT_THROW(StoneAgeNetwork(g, automaton, {0, 1, 9}, CoinOracle(1)),
               std::invalid_argument);
}

TEST(StoneAgeNetwork, SilentNodesDoNotTransmit) {
  const Graph g = gen::path(2);
  const ThreeStateStoneAgeAutomaton automaton;
  StoneAgeNetwork net(g, automaton, {0, 0}, CoinOracle(1));  // both white
  net.step();
  EXPECT_EQ(net.total_transmissions(), 0);
}

TEST(StoneAgeEquivalence, ThreeStateBitIdenticalOnSuite) {
  const std::vector<Graph> graphs = {
      gen::complete(16), gen::path(40),        gen::star(15),
      gen::gnp(60, 0.1, 3), gen::random_tree(50, 4),
  };
  const ThreeStateStoneAgeAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init3(g, InitPattern::kUniformRandom, coins);
      ThreeStateMIS direct(g, init, coins);
      StoneAgeNetwork net(g, automaton, encode3(init), coins);
      for (int round = 0; round < 200; ++round) {
        direct.step();
        net.step();
        ASSERT_EQ(net.colors(), encode3(direct.colors()))
            << g.summary() << " seed " << seed << " round " << round;
      }
    }
  }
}

TEST(StoneAgeEquivalence, ThreeColorFullSystemBitIdentical) {
  // The 18-state automaton must reproduce the 3-color process INCLUDING its
  // randomized logarithmic switch, via 18-channel full-state announcement.
  const std::vector<Graph> graphs = {
      gen::complete(12), gen::star(14), gen::gnp(40, 0.2, 7), gen::path(25),
  };
  const ThreeColorStoneAgeAutomaton automaton;
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const CoinOracle coins(seed);
      const auto init = make_init_g(g, InitPattern::kUniformRandom, coins);
      auto direct = ThreeColorMIS::with_randomized_switch(g, init, coins);
      const auto* sw = dynamic_cast<const RandomizedLogSwitch*>(&direct.switch_process());
      ASSERT_NE(sw, nullptr);
      std::vector<std::uint8_t> net_init(init.size());
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        net_init[static_cast<std::size_t>(u)] = ThreeColorStoneAgeAutomaton::encode(
            init[static_cast<std::size_t>(u)], sw->clock().level(u));
      }
      StoneAgeNetwork net(g, automaton, net_init, coins);
      for (int round = 0; round < 150; ++round) {
        direct.step();
        net.step();
        // Re-fetch through the syncing accessor each round: the lazy-switch
        // fast-forward may leave the physical clock behind the logical
        // round until a read forces the (bit-identical) replay.
        sw = dynamic_cast<const RandomizedLogSwitch*>(&direct.switch_process());
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          ASSERT_EQ(ThreeColorStoneAgeAutomaton::decode_color(net.color(u)),
                    direct.color(u))
              << g.summary() << " seed " << seed << " round " << round << " u " << u;
          ASSERT_EQ(ThreeColorStoneAgeAutomaton::decode_level(net.color(u)),
                    sw->clock().level(u))
              << g.summary() << " seed " << seed << " round " << round << " u " << u;
        }
      }
    }
  }
}

// ------------------------------------------------ network MIS bookkeeping --

// The networks keep the direct processes' MIS bookkeeping: for 80 rounds on
// one G(n, p) from one seed, beeping's snapshot equals 2state's on B_t, A_t,
// I_t and V_t, and stoneage's equals 3state's on B_t, I_t and V_t
// (stone-age's activity column is its schedule, which also holds the black0
// nodes about to demote).
TEST(NetworkBookkeeping, SnapshotsMatchTheDirectTwins) {
  const Graph g = gen::gnp(200, 0.03, 137);
  const auto make = [&](const char* name) {
    return ProtocolRegistry::instance().make(name, g, ProtocolParams{}, 139);
  };
  const auto beeping = make("beeping");
  const auto two_state = make("2state");
  const auto stoneage = make("stoneage");
  const auto three_state = make("3state");
  for (int round = 0; round <= 80; ++round) {
    if (round > 0) {
      for (Process* p : {beeping.get(), two_state.get(), stoneage.get(), three_state.get()})
        p->step();
    }
    const std::string at = "round " + std::to_string(round);
    const RoundStats b = beeping->snapshot();
    const RoundStats d2 = two_state->snapshot();
    ASSERT_EQ(b.black, d2.black) << at;
    ASSERT_EQ(b.active, d2.active) << at;
    ASSERT_EQ(b.stable_black, d2.stable_black) << at;
    ASSERT_EQ(b.unstable, d2.unstable) << at;
    const RoundStats s = stoneage->snapshot();
    const RoundStats d3 = three_state->snapshot();
    ASSERT_EQ(s.black, d3.black) << at;
    ASSERT_EQ(s.stable_black, d3.stable_black) << at;
    ASSERT_EQ(s.unstable, d3.unstable) << at;
  }
}

// Steps `net` for `rounds` rounds with a burst of random faults every
// `burst_every`, checking every round and after every burst that
// stabilized() is is_mis(black_set()). Returns how many checks found it
// stabilized.
template <typename Net>
int check_stabilized_is_mis(Net& net, int rounds, int burst_every,
                            const std::string& name) {
  const Graph& g = net.graph();
  const auto states = static_cast<std::uint64_t>(net.engine().num_colors());
  const CoinOracle fault_coins(1009);
  int stabilized = 0;
  const auto check = [&](const std::string& where) {
    const bool valid = is_mis(g, net.black_set());
    EXPECT_EQ(net.stabilized(), valid) << name << " " << where;
    stabilized += valid ? 1 : 0;
  };
  check("init");
  for (int round = 1; round <= rounds; ++round) {
    net.step();
    check("round " + std::to_string(round));
    if (round % burst_every != 0) continue;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      if (!fault_coins.bernoulli(round, u, CoinTag::kFault, 0.2)) continue;
      net.force_color(u, static_cast<std::uint8_t>(
                             fault_coins.word(round, u, CoinTag::kFault) % states));
    }
    check("after the faults of round " + std::to_string(round));
  }
  return stabilized;
}

std::vector<std::uint8_t> random_states(const Graph& g, int states, std::uint64_t seed) {
  const CoinOracle coins(seed);
  std::vector<std::uint8_t> out;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    out.push_back(static_cast<std::uint8_t>(coins.word(0, u, CoinTag::kInit) %
                                            static_cast<std::uint64_t>(states)));
  return out;
}

// Violations count the true configuration, before loss and sender collision
// detection, so stabilization is validity in every beeping variant.
TEST(NetworkBookkeeping, BeepingStabilizedIsValidity) {
  const Graph g = gen::gnp(60, 0.08, 149);
  const TwoStateBeepAutomaton automaton;
  const CoinOracle coins(151);
  const auto init = random_states(g, 2, 151);
  BeepingNetwork lossless(g, automaton, init, coins);
  EXPECT_GT(check_stabilized_is_mis(lossless, 120, 30, "lossless"), 0);
  BeepingNetwork lossy(g, automaton, init, coins);
  lossy.set_loss_probability(0.3);
  check_stabilized_is_mis(lossy, 120, 30, "loss 0.3");
  BeepingNetwork no_cd(g, automaton, init, coins, /*sender_collision_detection=*/false);
  check_stabilized_is_mis(no_cd, 120, 30, "no sender collision detection");
}

TEST(NetworkBookkeeping, StoneAgeStabilizedIsValidity) {
  const Graph g = gen::gnp(60, 0.08, 157);
  const ThreeStateStoneAgeAutomaton three_state;
  const ThreeColorStoneAgeAutomaton three_color;
  const CoinOracle coins(163);
  for (const StoneAgeAutomaton* automaton :
       std::vector<const StoneAgeAutomaton*>{&three_state, &three_color}) {
    for (const bool fast_forward : {true, false}) {
      StoneAgeNetwork net(g, *automaton, random_states(g, automaton->num_states(), 163),
                          coins);
      net.set_fast_forward(fast_forward);
      const std::string name = std::to_string(automaton->num_channels()) +
                               " channels, fast-forward " + (fast_forward ? "on" : "off");
      // The 3-color automaton's switch needs a few hundred rounds here.
      const int burst_every = automaton == &three_state ? 30 : 400;
      EXPECT_GT(check_stabilized_is_mis(net, 4 * burst_every, burst_every, name), 0)
          << name;
    }
  }
}

// Automata for the construction checks: per-state emission and membership
// tables, no transitions.
class TableBeepAutomaton final : public BeepingAutomaton {
 public:
  TableBeepAutomaton(std::vector<BeepAction> emits, std::vector<bool> mis)
      : emits_(std::move(emits)), mis_(std::move(mis)) {}
  int num_states() const override { return static_cast<int>(emits_.size()); }
  BeepAction emit(std::uint8_t s) const override { return emits_[s]; }
  std::uint8_t next(std::uint8_t s, bool, std::uint64_t) const override { return s; }
  bool in_mis(std::uint8_t s) const override { return mis_[s]; }

 private:
  std::vector<BeepAction> emits_;
  std::vector<bool> mis_;
};

class TableStoneAgeAutomaton final : public StoneAgeAutomaton {
 public:
  TableStoneAgeAutomaton(std::vector<int> emits, std::vector<bool> mis)
      : emits_(std::move(emits)), mis_(std::move(mis)) {}
  int num_states() const override { return static_cast<int>(emits_.size()); }
  int num_channels() const override { return 2; }
  int emit(std::uint8_t s) const override { return emits_[s]; }
  std::uint8_t next(std::uint8_t s, std::uint32_t, std::uint64_t,
                    std::uint64_t) const override {
    return s;
  }
  bool in_mis(std::uint8_t s) const override { return mis_[s]; }

 private:
  std::vector<int> emits_;
  std::vector<bool> mis_;
};

// The bookkeeping reads MIS membership off what neighbors hear, so an
// automaton for which the two differ is rejected at construction.
TEST(NetworkBookkeeping, ConstructionRejectsAutomataThatHideMembership) {
  const Graph g = gen::path(2);
  const CoinOracle coins(1);
  using A = BeepAction;
  const TableBeepAutomaton beeps_in_mis({A::kListen, A::kBeep}, {false, true});
  EXPECT_NO_THROW(BeepingNetwork(g, beeps_in_mis, {0, 1}, coins));
  const TableBeepAutomaton listening_mis({A::kListen, A::kListen}, {false, true});
  EXPECT_THROW(BeepingNetwork(g, listening_mis, {0, 1}, coins), std::invalid_argument);
  const TableBeepAutomaton beeping_non_mis({A::kBeep, A::kBeep}, {false, true});
  EXPECT_THROW(BeepingNetwork(g, beeping_non_mis, {0, 1}, coins), std::invalid_argument);

  const TableStoneAgeAutomaton like_three_state({-1, 0, 1}, {false, true, true});
  EXPECT_NO_THROW(StoneAgeNetwork(g, like_three_state, {0, 1}, coins));
  const TableStoneAgeAutomaton silent_mis({-1, -1, 1}, {false, true, true});
  EXPECT_THROW(StoneAgeNetwork(g, silent_mis, {0, 1}, coins), std::invalid_argument);
  const TableStoneAgeAutomaton shared_channel({0, 0, 1}, {false, true, true});
  EXPECT_THROW(StoneAgeNetwork(g, shared_channel, {0, 1}, coins), std::invalid_argument);
}

TEST(Automata, TwoStateTransitionTable) {
  const TwoStateBeepAutomaton a;
  const std::uint64_t black_word = ~0ULL;  // top bit set -> black
  const std::uint64_t white_word = 0;
  using A = TwoStateBeepAutomaton;
  // black + heard (collision) -> active -> coin decides.
  EXPECT_EQ(a.next(A::kBlack, true, black_word), A::kBlack);
  EXPECT_EQ(a.next(A::kBlack, true, white_word), A::kWhite);
  // black + silence -> stable black, keeps state regardless of coin.
  EXPECT_EQ(a.next(A::kBlack, false, white_word), A::kBlack);
  // white + heard -> covered, stays white.
  EXPECT_EQ(a.next(A::kWhite, true, black_word), A::kWhite);
  // white + silence -> active.
  EXPECT_EQ(a.next(A::kWhite, false, black_word), A::kBlack);
  EXPECT_EQ(a.next(A::kWhite, false, white_word), A::kWhite);
}

TEST(Automata, ThreeStateEmitsAtMostOneChannel) {
  const ThreeStateStoneAgeAutomaton a;
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kWhite), -1);
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kBlack0), 0);
  EXPECT_EQ(a.emit(ThreeStateStoneAgeAutomaton::kBlack1), 1);
}

TEST(Automata, ThreeColorEncodingRoundTrips) {
  for (int level = 0; level <= 5; ++level) {
    for (ColorG c : {ColorG::kWhite, ColorG::kBlack, ColorG::kGray}) {
      const auto s = ThreeColorStoneAgeAutomaton::encode(c, level);
      EXPECT_LT(s, 18);
      EXPECT_EQ(ThreeColorStoneAgeAutomaton::decode_color(s), c);
      EXPECT_EQ(ThreeColorStoneAgeAutomaton::decode_level(s), level);
    }
  }
}

TEST(Automata, StateCountsMatchPaper) {
  EXPECT_EQ(TwoStateBeepAutomaton().num_states(), 2);
  EXPECT_EQ(ThreeStateStoneAgeAutomaton().num_states(), 3);
  EXPECT_EQ(ThreeColorStoneAgeAutomaton().num_states(), 18);
}

}  // namespace
}  // namespace ssmis
