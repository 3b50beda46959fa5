// Counter-based randomness: every random decision a process makes is a pure
// function of (seed, round, vertex, tag).
//
// This mirrors the paper's analysis device: "at the beginning of each round t
// we flip for each vertex u an independent coin phi_t(u)" (Section 2.1). It
// also makes the beeping-model and stone-age-model simulations *bit-identical*
// to the direct process simulations given the same seed, which the test suite
// exploits for exact trace-equivalence checks.
//
// The construction hashes the (round, vertex, tag) counter with two rounds of
// SplitMix64 mixing keyed by the seed. This is not cryptographic; it is
// statistically strong enough for simulation (verified by the distribution
// tests in tests/test_rng.cpp).
#pragma once

#include <cstdint>

#include "rng/splitmix64.hpp"

namespace ssmis {

// Tags separate independent random streams consumed by one vertex in one
// round (e.g. the MIS coin vs. the phase-clock coin of the 3-color process).
enum class CoinTag : std::uint32_t {
  kMisColor = 1,      // phi_t(u): the black/white (or black1/black0) coin
  kSwitchBit = 2,     // b_t(u): the logarithmic-switch biased coin
  kLuby = 3,          // Luby's algorithm per-round priority
  kInit = 4,          // random initial states
  kFault = 5,         // transient-fault injection choices
  kScheduler = 6,     // randomized sequential scheduler
  kAblation = 7,      // 2-state constant-bias source (2state-variant)
  kNoise = 8,         // lossy-channel carrier-sense suppression
  kPriority = 9,      // 2-state per-vertex bias table (priority workload)
};

class CoinOracle {
 public:
  explicit constexpr CoinOracle(std::uint64_t seed) : seed_(seed) {}

  constexpr std::uint64_t seed() const { return seed_; }

  // 64 uniform bits for (round, vertex, tag).
  constexpr std::uint64_t word(std::int64_t round, std::int32_t vertex,
                               CoinTag tag) const {
    // Distinct multipliers keep the three counter dimensions from aliasing;
    // two mix rounds give full avalanche on the combined counter.
    std::uint64_t x = seed_;
    x ^= static_cast<std::uint64_t>(round) * 0x9e3779b97f4a7c15ULL;
    x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(vertex)) *
         0xc2b2ae3d27d4eb4fULL;
    x ^= static_cast<std::uint64_t>(tag) * 0x165667b19e3779f9ULL;
    return splitmix64_mix(splitmix64_mix(x) + 0x9e3779b97f4a7c15ULL);
  }

  // The fair coin phi_t(u): true = black.
  constexpr bool fair_coin(std::int64_t round, std::int32_t vertex,
                           CoinTag tag = CoinTag::kMisColor) const {
    return (word(round, vertex, tag) >> 63) != 0;
  }

  // Bernoulli(p) with p given as a dyadic threshold: true with probability
  // `num / 2^log2_den` (exact, no floating point). Used by the logarithmic
  // switch whose parameter is zeta = 2^-7.
  constexpr bool dyadic_bernoulli(std::int64_t round, std::int32_t vertex,
                                  CoinTag tag, std::uint64_t num,
                                  unsigned log2_den) const {
    const std::uint64_t w = word(round, vertex, tag) >> (64 - log2_den);
    return w < num;
  }

  // Bernoulli(p) for arbitrary double p in [0,1] (53-bit resolution).
  constexpr bool bernoulli(std::int64_t round, std::int32_t vertex, CoinTag tag,
                           double p) const {
    const double u =
        static_cast<double>(word(round, vertex, tag) >> 11) * 0x1.0p-53;
    return u < p;
  }

  // Uniform double in [0,1) — used by Luby's algorithm for priorities.
  constexpr double uniform(std::int64_t round, std::int32_t vertex,
                           CoinTag tag) const {
    return static_cast<double>(word(round, vertex, tag) >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace ssmis
