// The synchronous stone-age model (Emek-Wattenhofer 2013), in the form the
// paper uses: a constant number of beeping channels without collision
// detection. Each node beeps on at most one channel per round and receives,
// per channel, the single bit "did at least one neighbor beep on it?"
// (the one-two-many principle with bounding parameter b = 1).
//
// The 3-state MIS process runs in this model with 2 channels; the 3-color
// process (18 states) runs with one channel per state via full-state
// announcement. Both automata live in mis_automata.hpp. The network is a
// template over the automaton type, which it holds by value.
//
// Simulation substrate: the network runs on ProcessEngine (core/engine.hpp)
// with one incrementally maintained counter per channel — the per-node heard
// mask is the engine's Heard (which channel counters are positive) instead
// of an O(m) neighborhood rescan, so a round costs O(|scheduled| + sum
// deg(nodes that changed state)), and only a node whose mask changed is
// re-evaluated. Automata that declare quiescent (state, heard-mask) pairs
// get sparse scheduling; others run dense with identical semantics. The
// engine keeps the MIS bookkeeping too — the violation count, I_t and V_t —
// so the network is an EngineProcess like ThreeStateMIS
// (core/engine_process.hpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine_process.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// Node behavior, as a value type. Every member is required and const:
//
//   int num_states() const;
//   int num_channels() const;  // the communication alphabet size
//   int emit(uint8_t state) const;
//       // the channel this state beeps on, or -1 for silence (at most one
//       // channel: the stone-age restriction)
//   uint8_t next(uint8_t state, uint32_t heard_mask, uint64_t w_color,
//                uint64_t w_aux) const;
//       // `heard_mask` bit c is set iff >= 1 neighbor beeped on channel c;
//       // `w_color` / `w_aux` are two independent 64-bit random words for
//       // the round (MIS coin and auxiliary sub-process coin)
//   bool quiescent(uint8_t state, uint32_t heard_mask) const;
//       // scheduling hint: true only if next(state, heard_mask, w1, w2) ==
//       // state for EVERY pair of coin words. Constant false is always
//       // sound: it means dense stepping.
//   bool orbit(uint8_t state, uint32_t heard_mask) const;
//   uint8_t orbit_state(uint8_t state, uint64_t w_color, uint64_t w_aux) const;
//       // stable-periodic fast-forward (core/engine.hpp, FastForwardRule):
//       // orbit(state, heard_mask) declares that as long as the heard mask
//       // stays put, the node is on a memoryless orbit: its state at any
//       // later round is orbit_state(state, w_color, w_aux) on that round's
//       // coin words alone, which must equal next(s, heard_mask, w_color,
//       // w_aux) for every state s of the orbit. The MIS-relevant
//       // projection (in_mis, and the number of channels beeped on) is
//       // constant along the orbit, and every state of it is non-quiescent.
//       // orbit_state reads no heard mask: the engine evaluates it when the
//       // mask may already have left the orbit. Constant false for orbit is
//       // always sound: it means no fast-forward (orbit_state is then never
//       // called).
//   bool in_mis(uint8_t state) const;
template <typename A>
concept StoneAgeAutomaton =
    requires(const A a, std::uint8_t s, std::uint32_t mask, std::uint64_t w) {
      { a.num_states() } -> std::convertible_to<int>;
      { a.num_channels() } -> std::convertible_to<int>;
      { a.emit(s) } -> std::convertible_to<int>;
      { a.next(s, mask, w, w) } -> std::convertible_to<std::uint8_t>;
      { a.quiescent(s, mask) } -> std::convertible_to<bool>;
      { a.orbit(s, mask) } -> std::convertible_to<bool>;
      { a.orbit_state(s, w, w) } -> std::convertible_to<std::uint8_t>;
      { a.in_mis(s) } -> std::convertible_to<bool>;
    };

// Engine policy owning a StoneAgeAutomaton: counter j counts the neighbors
// currently beeping on channel j, and the automaton's heard mask is
// Heard::bits(). The MIS counters are the MIS channels, the ones MIS states
// beep on, so the engine compares the automaton's in_mis with whether the
// node hears an MIS channel; it rejects an automaton with a silent MIS
// state or a non-MIS state on an MIS channel.
template <StoneAgeAutomaton A>
class StoneAgeRule {
 public:
  using Color = std::uint8_t;

  // Throws std::invalid_argument if the automaton declares more than 32
  // channels, and std::logic_error if a state emits a channel outside
  // [-1, num_channels).
  StoneAgeRule(A automaton, const CoinOracle& coins)
      : automaton_(std::move(automaton)), coins_(coins) {
    if (automaton_.num_channels() > 32)
      throw std::invalid_argument("StoneAgeNetwork: more than 32 channels");
    for (int s = 0; s < automaton_.num_states(); ++s) {
      const auto state = static_cast<std::uint8_t>(s);
      const int c = automaton_.emit(state);
      if (c >= automaton_.num_channels() || c < -1)
        throw std::logic_error("StoneAgeNetwork: automaton emitted bad channel");
      if (in_mis(state) && c >= 0) mis_channels_ |= 1u << c;
    }
  }

  int num_colors() const { return automaton_.num_states(); }
  int num_counters() const { return automaton_.num_channels(); }
  Vertex contribution(std::uint8_t s, int j) const { return automaton_.emit(s) == j ? 1 : 0; }

  bool scheduled(std::uint8_t s, Heard h) const { return !automaton_.quiescent(s, h.bits()); }

  std::uint8_t transition(Vertex u, std::uint8_t s, Heard h, std::int64_t t) const {
    return automaton_.next(s, h.bits(), coins_.word(t, u, CoinTag::kMisColor),
                           coins_.word(t, u, CoinTag::kSwitchBit));
  }

  // The activity column is the schedule: the nodes that act next round.
  bool active(std::uint8_t s, Heard h) const { return scheduled(s, h); }
  bool in_mis(std::uint8_t s) const { return automaton_.in_mis(s); }
  std::uint32_t mis_counters() const { return mis_channels_; }

  // Stable-periodic fast-forward (engine.hpp): forwards the automaton's
  // orbit declaration, drawing the same coin words transition() would, so
  // a materialized state is bit-identical to having stepped every round.
  bool fast_forwardable(std::uint8_t s, Heard h) const { return automaton_.orbit(s, h.bits()); }
  std::uint8_t orbit_color(Vertex u, std::uint8_t s, std::int64_t t) const {
    return automaton_.orbit_state(s, coins_.word(t, u, CoinTag::kMisColor),
                                  coins_.word(t, u, CoinTag::kSwitchBit));
  }

  const A& automaton() const { return automaton_; }

 private:
  A automaton_;
  CoinOracle coins_;
  std::uint32_t mis_channels_ = 0;  // bit j: MIS states beep on channel j
};

// The network as a Process: an EngineProcess whose colors are the
// automaton states (colors(), color(u)) and whose B_t is the nodes in MIS
// states. stabilized() is the engine's O(1) "no violation", so it equals
// is_mis(graph(), black_set()); the activity column A_t is the scheduled
// nodes. Fast-forward (on by default) engages only for automata that
// declare orbits; trajectories are bit-identical either way.
template <StoneAgeAutomaton A>
class StoneAgeNetwork final : public EngineProcess<StoneAgeRule<A>> {
 public:
  // Throws std::invalid_argument on init size/state range violations and
  // std::invalid_argument / std::logic_error on an automaton StoneAgeRule
  // or the engine rejects.
  StoneAgeNetwork(const Graph& g, A automaton, std::vector<std::uint8_t> init,
                  const CoinOracle& coins)
      : EngineProcess<StoneAgeRule<A>>(g, std::move(init),
                                       StoneAgeRule<A>(std::move(automaton), coins)) {}

  // One round, counting the transmissions sent in it: a histogram sum over
  // the constant-size state alphabet against the frozen states, where silent
  // states transmit nothing. Raw histogram entries: the sum over emitting
  // states is exact under fast-forward (orbits keep the number of channels
  // beeped on constant — part of the StoneAgeAutomaton orbit contract), and
  // staying off the exact-state accessor keeps the per-round cost
  // O(states), not O(n).
  void step() final {
    const A& automaton = this->engine_.rule().automaton();
    total_transmissions_ += this->engine_.raw_color_count_if(
        [&](std::uint8_t s) { return automaton.emit(s) >= 0; });
    this->engine_.step();
  }

  // Messages are letters from a constant alphabet: log2(channels+1) bits
  // of information per node per round.
  std::int64_t total_transmissions() const { return total_transmissions_; }

 private:
  std::int64_t total_transmissions_ = 0;
};

}  // namespace ssmis
