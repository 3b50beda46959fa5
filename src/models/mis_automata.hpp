// The paper's MIS algorithms expressed as communication-model automata.
//
//  * TwoStateBeepAutomaton  — Definition 4 in the beeping model with sender
//    collision detection: black nodes beep, white nodes listen; 2 states,
//    1 random bit per round.
//  * ThreeStateStoneAgeAutomaton — Definition 5 in the stone-age model:
//    2 channels ("I am black0" / "I am black1"), no collision detection;
//    3 states, 1 random bit per round.
//  * ThreeColorStoneAgeAutomaton — Definition 28 + the randomized
//    logarithmic switch, via full-state announcement on 18 channels;
//    18 states, 1 + 7 random bits per round (color coin + switch coin).
//
// Each automaton is constructed so that, when driven by the corresponding
// network simulator with the same CoinOracle seed, the execution is
// bit-identical to the direct process simulation. The test suite asserts
// this round-by-round. The automata are empty types, defined here in full
// so that every network instantiation inlines them.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/color.hpp"
#include "models/beeping.hpp"
#include "models/stone_age.hpp"

namespace ssmis {

class TwoStateBeepAutomaton {
 public:
  static constexpr std::uint8_t kWhite = 0;
  static constexpr std::uint8_t kBlack = 1;

  int num_states() const { return 2; }
  BeepAction emit(std::uint8_t state) const {
    return state == kBlack ? BeepAction::kBeep : BeepAction::kListen;
  }
  std::uint8_t next(std::uint8_t state, bool heard, std::uint64_t coin_word) const {
    // heard == "some neighbor is black". Active: black with a black
    // neighbor (detected via sender collision detection) or white with none.
    if (quiescent(state, heard)) return state;
    return (coin_word >> 63) != 0 ? kBlack : kWhite;
  }
  // Non-active nodes keep their state for every coin word — this is what
  // lets the engine keep only the Definition 4 active set on its worklist.
  bool quiescent(std::uint8_t state, bool heard) const {
    return (state == kBlack) ? !heard : heard;
  }
  bool in_mis(std::uint8_t state) const { return state == kBlack; }

  static std::uint8_t encode(Color2 c) {
    return c == Color2::kBlack ? kBlack : kWhite;
  }
  static Color2 decode(std::uint8_t s) {
    return s == kBlack ? Color2::kBlack : Color2::kWhite;
  }
};

class ThreeStateStoneAgeAutomaton {
 public:
  // State encoding matches Color3's underlying values.
  static constexpr std::uint8_t kWhite = 0;
  static constexpr std::uint8_t kBlack0 = 1;
  static constexpr std::uint8_t kBlack1 = 2;
  static constexpr int kChannelBlack0 = 0;
  static constexpr int kChannelBlack1 = 1;

  int num_states() const { return 3; }
  int num_channels() const { return 2; }
  int emit(std::uint8_t state) const {
    switch (state) {
      case kBlack0: return kChannelBlack0;
      case kBlack1: return kChannelBlack1;
      default: return -1;  // white is silent
    }
  }
  std::uint8_t next(std::uint8_t state, std::uint32_t heard_mask, std::uint64_t w_color,
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
  // The only fixed point of Definition 5 is a covered white vertex; black
  // states always re-randomize their black1/black0 representation.
  bool quiescent(std::uint8_t state, std::uint32_t heard_mask) const {
    return state == kWhite &&
           (heard_mask & ((1u << kChannelBlack0) | (1u << kChannelBlack1))) != 0;
  }
  // A black node hearing silence is a stable black: it re-randomizes
  // black1/black0 off its color coin alone, forever, and every neighbor is
  // a silent white (a black neighbor would beep into our mask). The orbit
  // is memoryless and its projection — in-MIS, beeping on exactly one
  // channel — is constant; which channel it beeps on is invisible to the
  // silent whites around it (they only test "some black channel heard").
  bool orbit(std::uint8_t state, std::uint32_t heard_mask) const {
    return state != kWhite && heard_mask == 0;
  }
  std::uint8_t orbit_state(std::uint8_t /*state*/, std::uint64_t w_color,
                           std::uint64_t /*w_aux*/) const {
    return (w_color >> 63) != 0 ? kBlack1 : kBlack0;
  }
  bool in_mis(std::uint8_t state) const { return state != kWhite; }

  static std::uint8_t encode(Color3 c) { return static_cast<std::uint8_t>(c); }
  static Color3 decode(std::uint8_t s) { return static_cast<Color3>(s); }
};

// 18 states = (color in {white, black, gray}) x (switch level in 0..5);
// channel = state id (full-state announcement, one channel per round). The
// switch is the paper's, with zeta = 2^-7: a top-level node drops with
// probability zeta, read off the top 7 bits of its switch coin word exactly
// as PhaseClock's dyadic_bernoulli(t, u, kSwitchBit, 1, 7) reads them.
class ThreeColorStoneAgeAutomaton {
 public:
  int num_states() const { return 18; }
  int num_channels() const { return 18; }
  int emit(std::uint8_t state) const { return state; }
  std::uint8_t next(std::uint8_t state, std::uint32_t heard_mask, std::uint64_t w_color,
                    std::uint64_t w_aux) const {
    const ColorG color = decode_color(state);
    const int level = decode_level(state);
    const bool black_neighbor = hears_black(heard_mask);

    // Color sub-process (Definition 28), using sigma_{t-1} = (own level <= 2).
    ColorG next_color = color;
    if (color == ColorG::kBlack && black_neighbor) {
      next_color = (w_color >> 63) != 0 ? ColorG::kBlack : ColorG::kGray;
    } else if (color == ColorG::kWhite && !black_neighbor) {
      next_color = (w_color >> 63) != 0 ? ColorG::kBlack : ColorG::kWhite;
    } else if (color == ColorG::kGray && level <= 2) {
      next_color = ColorG::kWhite;
    }

    // Switch sub-process (Definition 26 phase clock, top level 5): level 0
    // resets to top, and top stays unless its coin reads b = 0.
    const bool b_is_zero = (w_aux >> 57) == 0;  // P[b = 0] = zeta = 2^-7
    if (level == 0 || (level == 5 && !b_is_zero)) return encode(next_color, 5);
    return encode(next_color, std::max(level, max_heard_level(heard_mask)) - 1);
  }
  // The fixed points of Definition 28 + the switch: a level strictly
  // between 0 and top that hears level + 1 as its highest level keeps its
  // level, and its color stays whatever the coin when it is a black with no
  // black neighbor, a white with one, or a gray at level >= 3 (sigma off).
  bool quiescent(std::uint8_t state, std::uint32_t heard_mask) const {
    const int level = decode_level(state);
    if (level < 1 || level > 4 || max_heard_level(heard_mask) != level + 1) return false;
    const ColorG color = decode_color(state);
    if (color == ColorG::kBlack) return !hears_black(heard_mask);
    if (color == ColorG::kWhite) return hears_black(heard_mask);
    return level >= 3;  // a gray whose sigma is off
  }
  // No orbits: every state is announced on its own channel, so neighbors
  // hear each change of state and no periodic one hides from them.
  bool orbit(std::uint8_t /*state*/, std::uint32_t /*heard_mask*/) const { return false; }
  std::uint8_t orbit_state(std::uint8_t state, std::uint64_t /*w_color*/,
                           std::uint64_t /*w_aux*/) const {
    return state;
  }
  bool in_mis(std::uint8_t state) const { return decode_color(state) == ColorG::kBlack; }

  static std::uint8_t encode(ColorG color, int level) {
    return static_cast<std::uint8_t>(level * 3 + static_cast<int>(color));
  }
  static ColorG decode_color(std::uint8_t state) {
    return static_cast<ColorG>(state % 3);
  }
  static int decode_level(std::uint8_t state) { return state / 3; }

 private:
  // The announcement channels decoded: is some neighbor black, and which is
  // the highest level among neighbors (-1 if none is heard).
  static bool hears_black(std::uint32_t heard_mask) {
    std::uint32_t black = 0;
    for (int level = 0; level <= 5; ++level)
      black |= 1u << encode(ColorG::kBlack, level);
    return (heard_mask & black) != 0;
  }
  static int max_heard_level(std::uint32_t heard_mask) {
    for (int level = 5; level >= 0; --level)
      if ((heard_mask >> (3 * level)) & 7u) return level;
    return -1;
  }
};

}  // namespace ssmis
