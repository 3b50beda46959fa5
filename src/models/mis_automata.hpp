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
// this round-by-round.
#pragma once

#include <cstdint>

#include "core/color.hpp"
#include "models/beeping.hpp"
#include "models/stone_age.hpp"

namespace ssmis {

class TwoStateBeepAutomaton final : public BeepingAutomaton {
 public:
  static constexpr std::uint8_t kWhite = 0;
  static constexpr std::uint8_t kBlack = 1;

  int num_states() const override { return 2; }
  BeepAction emit(std::uint8_t state) const override {
    return state == kBlack ? BeepAction::kBeep : BeepAction::kListen;
  }
  std::uint8_t next(std::uint8_t state, bool heard,
                    std::uint64_t coin_word) const override;
  // Non-active nodes keep their state for every coin word — this is what
  // lets the engine keep only the Definition 4 active set on its worklist.
  bool quiescent(std::uint8_t state, bool heard) const override {
    return (state == kBlack) ? !heard : heard;
  }
  bool in_mis(std::uint8_t state) const override { return state == kBlack; }

  static std::uint8_t encode(Color2 c) {
    return c == Color2::kBlack ? kBlack : kWhite;
  }
  static Color2 decode(std::uint8_t s) {
    return s == kBlack ? Color2::kBlack : Color2::kWhite;
  }
};

class ThreeStateStoneAgeAutomaton final : public StoneAgeAutomaton {
 public:
  // State encoding matches Color3's underlying values.
  static constexpr std::uint8_t kWhite = 0;
  static constexpr std::uint8_t kBlack0 = 1;
  static constexpr std::uint8_t kBlack1 = 2;
  static constexpr int kChannelBlack0 = 0;
  static constexpr int kChannelBlack1 = 1;

  int num_states() const override { return 3; }
  int num_channels() const override { return 2; }
  int emit(std::uint8_t state) const override;
  std::uint8_t next(std::uint8_t state, std::uint32_t heard_mask,
                    std::uint64_t w_color, std::uint64_t w_aux) const override;
  // The only fixed point of Definition 5 is a covered white vertex; black
  // states always re-randomize their black1/black0 representation.
  bool quiescent(std::uint8_t state, std::uint32_t heard_mask) const override {
    return state == kWhite &&
           (heard_mask & ((1u << kChannelBlack0) | (1u << kChannelBlack1))) != 0;
  }
  // A black node hearing silence is a stable black: it re-randomizes
  // black1/black0 off its color coin alone, forever, and every neighbor is
  // a silent white (a black neighbor would beep into our mask). The orbit
  // is memoryless and its projection — in-MIS, beeping on exactly one
  // channel — is constant; which channel it beeps on is invisible to the
  // silent whites around it (they only test "some black channel heard").
  bool orbit(std::uint8_t state, std::uint32_t heard_mask) const override {
    return state != kWhite && heard_mask == 0;
  }
  std::uint8_t orbit_state(std::uint8_t /*state*/, std::uint64_t w_color,
                           std::uint64_t /*w_aux*/) const override {
    return (w_color >> 63) != 0 ? kBlack1 : kBlack0;
  }
  bool in_mis(std::uint8_t state) const override { return state != kWhite; }

  static std::uint8_t encode(Color3 c) { return static_cast<std::uint8_t>(c); }
  static Color3 decode(std::uint8_t s) { return static_cast<Color3>(s); }
};

// 18 states = (color in {white, black, gray}) x (switch level in 0..5);
// channel = state id (full-state announcement, one channel per round).
class ThreeColorStoneAgeAutomaton final : public StoneAgeAutomaton {
 public:
  // zeta = zeta_num / 2^zeta_log2_den must match the process's switch.
  explicit ThreeColorStoneAgeAutomaton(std::uint64_t zeta_num = 1,
                                       unsigned zeta_log2_den = 7)
      : zeta_num_(zeta_num), zeta_log2_den_(zeta_log2_den) {}

  int num_states() const override { return 18; }
  int num_channels() const override { return 18; }
  int emit(std::uint8_t state) const override { return state; }
  std::uint8_t next(std::uint8_t state, std::uint32_t heard_mask,
                    std::uint64_t w_color, std::uint64_t w_aux) const override;
  bool in_mis(std::uint8_t state) const override {
    return decode_color(state) == ColorG::kBlack;
  }

  static std::uint8_t encode(ColorG color, int level) {
    return static_cast<std::uint8_t>(level * 3 + static_cast<int>(color));
  }
  static ColorG decode_color(std::uint8_t state) {
    return static_cast<ColorG>(state % 3);
  }
  static int decode_level(std::uint8_t state) { return state / 3; }

 private:
  std::uint64_t zeta_num_;
  unsigned zeta_log2_den_;
};

}  // namespace ssmis
