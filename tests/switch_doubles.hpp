// Deterministic SwitchProcess doubles for unit-testing the 3-color color
// dynamics independently of clock randomness.
//   * AlwaysOnSwitch / NeverOnSwitch — degenerate switches.
//   * PeriodicSwitch — a global cycle: off for `off_len` rounds, then on
//     for `on_len`.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/log_switch.hpp"

namespace ssmis {

class AlwaysOnSwitch final : public SwitchProcess {
 public:
  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override { return true; }
  std::int64_t round() const override { return round_; }
  int num_states() const override { return 1; }

 private:
  std::int64_t round_ = 0;
};

class NeverOnSwitch final : public SwitchProcess {
 public:
  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override { return false; }
  std::int64_t round() const override { return round_; }
  int num_states() const override { return 1; }

 private:
  std::int64_t round_ = 0;
};

class PeriodicSwitch final : public SwitchProcess {
 public:
  // Throws std::invalid_argument unless off_len >= 0 and on_len > 0.
  PeriodicSwitch(std::int64_t off_len, std::int64_t on_len)
      : off_len_(off_len), on_len_(on_len) {
    if (off_len < 0 || on_len <= 0)
      throw std::invalid_argument("PeriodicSwitch: need off_len >= 0, on_len > 0");
  }

  void step() override { ++round_; }
  void advance(std::int64_t rounds) override {
    if (rounds > 0) round_ += rounds;
  }
  bool on(Vertex) const override {
    return round_ % (off_len_ + on_len_) >= off_len_;
  }
  std::int64_t round() const override { return round_; }
  int num_states() const override {
    return static_cast<int>(off_len_ + on_len_);
  }

 private:
  std::int64_t off_len_;
  std::int64_t on_len_;
  std::int64_t round_ = 0;
};

}  // namespace ssmis
