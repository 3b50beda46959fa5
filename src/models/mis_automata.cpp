#include "models/mis_automata.hpp"

#include <memory>
#include <vector>

#include "core/init.hpp"
#include "harness/registry.hpp"

namespace ssmis {

namespace {

// --- registry entries -------------------------------------------------------
//
// The network protocols run the MIS automata through the communication-model
// simulators. Each network is an EngineProcess like the direct processes:
// the engine's violation count is stabilized(), its coverage is settled(u).
// A network owns its automaton, an empty value.

const ProtocolRegistrar kBeepingProtocol{
    "beeping",
    "the 2-state MIS automaton in the beeping model (1 bit/round; "
    "--proto-sender-cd=0 disables sender collision detection, "
    "--proto-loss sets the carrier-sense loss rate); lossless runs are "
    "bit-identical to 2state",
    {"sender-cd", "loss"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      const auto c2 = make_init2(g, params.init, coins);
      std::vector<std::uint8_t> init(c2.size());
      for (std::size_t i = 0; i < c2.size(); ++i)
        init[i] = TwoStateBeepAutomaton::encode(c2[i]);
      // The rule validates the loss probability, so a bad --proto-loss
      // (negative, NaN, >= 1) aborts instead of silently running lossless.
      return std::make_unique<BeepingNetwork<TwoStateBeepAutomaton>>(
          g, TwoStateBeepAutomaton{}, std::move(init), coins,
          BeepChannel{.sender_collision_detection = params.get_bool("sender-cd", true),
                      .loss_probability = params.get_double("loss", 0.0)});
    }};

const ProtocolRegistrar kStoneAgeProtocol{
    "stoneage",
    "the 3-state MIS automaton in the synchronous stone-age model "
    "(2 channels, no collision detection; --proto-fast-forward=0 disables "
    "stable-periodic fast-forward); bit-identical to 3state",
    {"fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      const auto c3 = make_init3(g, params.init, coins);
      std::vector<std::uint8_t> init(c3.size());
      for (std::size_t i = 0; i < c3.size(); ++i)
        init[i] = ThreeStateStoneAgeAutomaton::encode(c3[i]);
      auto p = std::make_unique<StoneAgeNetwork<ThreeStateStoneAgeAutomaton>>(
          g, ThreeStateStoneAgeAutomaton{}, std::move(init), coins);
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
