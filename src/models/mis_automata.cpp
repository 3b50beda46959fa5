#include "models/mis_automata.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/init.hpp"
#include "harness/registry.hpp"

namespace ssmis {

std::uint8_t TwoStateBeepAutomaton::next(std::uint8_t state, bool heard,
                                         std::uint64_t coin_word) const {
  // heard == "some neighbor is black". Active: black with a black neighbor
  // (detected via sender collision detection) or white with none.
  const bool active = (state == kBlack) ? heard : !heard;
  if (!active) return state;
  return (coin_word >> 63) != 0 ? kBlack : kWhite;
}

int ThreeStateStoneAgeAutomaton::emit(std::uint8_t state) const {
  switch (state) {
    case kBlack0: return kChannelBlack0;
    case kBlack1: return kChannelBlack1;
    default: return -1;  // white is silent
  }
}

std::uint8_t ThreeStateStoneAgeAutomaton::next(std::uint8_t state,
                                               std::uint32_t heard_mask,
                                               std::uint64_t w_color,
                                               std::uint64_t /*w_aux*/) const {
  const bool heard_black0 = (heard_mask & (1u << kChannelBlack0)) != 0;
  const bool heard_black1 = (heard_mask & (1u << kChannelBlack1)) != 0;
  const bool heard_black = heard_black0 || heard_black1;
  const bool active = state == kBlack1 ||
                      (state == kBlack0 && !heard_black1) ||
                      (state == kWhite && !heard_black);
  if (active) return (w_color >> 63) != 0 ? kBlack1 : kBlack0;
  if (state == kBlack0) return kWhite;  // black0 with a black1 neighbor
  return state;                          // white with a black neighbor
}

std::uint8_t ThreeColorStoneAgeAutomaton::next(std::uint8_t state,
                                               std::uint32_t heard_mask,
                                               std::uint64_t w_color,
                                               std::uint64_t w_aux) const {
  const ColorG color = decode_color(state);
  const int level = decode_level(state);

  // Decode the announcement channels: which (color, level) combinations are
  // present among neighbors.
  bool black_neighbor = false;
  int max_heard_level = -1;
  for (int s = 0; s < 18; ++s) {
    if ((heard_mask & (1u << s)) == 0) continue;
    if (decode_color(static_cast<std::uint8_t>(s)) == ColorG::kBlack)
      black_neighbor = true;
    max_heard_level = std::max(max_heard_level, decode_level(static_cast<std::uint8_t>(s)));
  }

  // Color sub-process (Definition 28), using sigma_{t-1} = (own level <= 2).
  ColorG next_color = color;
  if (color == ColorG::kBlack && black_neighbor) {
    next_color = (w_color >> 63) != 0 ? ColorG::kBlack : ColorG::kGray;
  } else if (color == ColorG::kWhite && !black_neighbor) {
    next_color = (w_color >> 63) != 0 ? ColorG::kBlack : ColorG::kWhite;
  } else if (color == ColorG::kGray && level <= 2) {
    next_color = ColorG::kWhite;
  }

  // Switch sub-process (Definition 26 phase clock, top level 5).
  int next_level;
  bool reset_to_top = false;
  if (level == 5) {
    const bool b_is_zero =
        (w_aux >> (64 - zeta_log2_den_)) < zeta_num_;  // P[b=0] = zeta
    reset_to_top = !b_is_zero;
  }
  if (level == 0) reset_to_top = true;
  if (reset_to_top) {
    next_level = 5;
  } else {
    next_level = std::max(level, max_heard_level) - 1;
  }
  return encode(next_color, next_level);
}

namespace {

// --- registry entries -------------------------------------------------------
//
// The network protocols run the MIS automata through the communication-model
// simulators. Each network is an EngineProcess like the direct processes:
// the engine's violation count is stabilized(), its coverage is settled(u).
// The automata are stateless, so one function-local instance outlives every
// network built from it.

const ProtocolRegistrar kBeepingProtocol{
    "beeping",
    "the 2-state MIS automaton in the beeping model (1 bit/round; "
    "--proto-sender-cd=0 disables sender collision detection, "
    "--proto-loss sets the carrier-sense loss rate); lossless runs are "
    "bit-identical to 2state",
    {"sender-cd", "loss"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      static const TwoStateBeepAutomaton automaton;
      const CoinOracle coins(seed);
      const auto c2 = make_init2(g, params.init, coins);
      std::vector<std::uint8_t> init(c2.size());
      for (std::size_t i = 0; i < c2.size(); ++i)
        init[i] = TwoStateBeepAutomaton::encode(c2[i]);
      auto p = std::make_unique<BeepingNetwork>(
          g, automaton, std::move(init), coins, params.get_bool("sender-cd", true));
      // Unconditional: set_loss_probability validates the range, so a bad
      // --proto-loss (negative, NaN, >= 1) aborts instead of silently
      // running lossless.
      p->set_loss_probability(params.get_double("loss", 0.0));
      return p;
    }};

const ProtocolRegistrar kStoneAgeProtocol{
    "stoneage",
    "the 3-state MIS automaton in the synchronous stone-age model "
    "(2 channels, no collision detection; --proto-fast-forward=0 disables "
    "stable-periodic fast-forward); bit-identical to 3state",
    {"fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      static const ThreeStateStoneAgeAutomaton automaton;
      const CoinOracle coins(seed);
      const auto c3 = make_init3(g, params.init, coins);
      std::vector<std::uint8_t> init(c3.size());
      for (std::size_t i = 0; i < c3.size(); ++i)
        init[i] = ThreeStateStoneAgeAutomaton::encode(c3[i]);
      auto p = std::make_unique<StoneAgeNetwork>(g, automaton, std::move(init), coins);
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
