// The synchronous stone-age model (Emek-Wattenhofer 2013), in the form the
// paper uses: a constant number of beeping channels without collision
// detection. Each node beeps on at most one channel per round and receives,
// per channel, the single bit "did at least one neighbor beep on it?"
// (the one-two-many principle with bounding parameter b = 1).
//
// The 3-state MIS process runs in this model with 2 channels; the 3-color
// process (18 states) runs with one channel per state via full-state
// announcement. Both automata live in mis_automata.hpp.
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

#include <cstdint>
#include <vector>

#include "core/engine_process.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

class StoneAgeAutomaton {
 public:
  virtual ~StoneAgeAutomaton() = default;

  virtual int num_states() const = 0;
  virtual int num_channels() const = 0;  // the communication alphabet size

  // Channel this state beeps on, or -1 for silence. (At most one channel:
  // the stone-age restriction.)
  virtual int emit(std::uint8_t state) const = 0;

  // `heard_mask` bit c is set iff >= 1 neighbor beeped on channel c.
  // `w_color` / `w_aux` are two independent 64-bit random words for the
  // round (MIS coin and auxiliary sub-process coin, respectively).
  virtual std::uint8_t next(std::uint8_t state, std::uint32_t heard_mask,
                            std::uint64_t w_color, std::uint64_t w_aux) const = 0;

  // Scheduling hint for the sparse engine: return true only if
  // next(state, heard_mask, w1, w2) == state for EVERY pair of coin words.
  // The default (never quiescent) is always sound: it means dense stepping.
  virtual bool quiescent(std::uint8_t /*state*/, std::uint32_t /*heard_mask*/) const {
    return false;
  }

  // Stable-periodic fast-forward hints (core/engine.hpp, FastForwardRule).
  // orbit(state, heard) declares that as long as the heard mask stays put,
  // the node's trajectory from this configuration is autonomous and
  // memoryless — its state at any later round is orbit_state evaluated on
  // that round's coin words alone — with the MIS-relevant projection
  // (in_mis, and the number of channels beeped on) constant along the
  // orbit, and with every state of the orbit non-quiescent. The default
  // (no orbits) is always sound: it means no fast-forward.
  virtual bool orbit(std::uint8_t /*state*/, std::uint32_t /*heard_mask*/) const {
    return false;
  }
  virtual std::uint8_t orbit_state(std::uint8_t state, std::uint32_t /*heard_mask*/,
                                   std::uint64_t /*w_color*/,
                                   std::uint64_t /*w_aux*/) const {
    return state;
  }

  virtual bool in_mis(std::uint8_t state) const = 0;
};

// Engine policy wrapping a StoneAgeAutomaton: counter j counts the
// neighbors currently beeping on channel j, and the automaton's heard mask
// is Heard::bits(). The MIS bookkeeping compares the automaton's in_mis
// with whether the node hears an MIS channel — one that MIS states beep on.
class StoneAgeRule {
 public:
  using Color = std::uint8_t;

  // Throws std::invalid_argument if the automaton declares more than 32
  // channels, or unless MIS membership is exactly what neighbors hear:
  // every MIS state beeps, and no other state beeps on an MIS channel.
  // Throws std::logic_error if a state emits a channel outside
  // [-1, num_channels).
  StoneAgeRule(const StoneAgeAutomaton* automaton, const CoinOracle& coins);

  int num_colors() const { return automaton_->num_states(); }
  int num_counters() const { return automaton_->num_channels(); }
  Vertex contribution(std::uint8_t s, int j) const {
    return automaton_->emit(s) == j ? 1 : 0;
  }

  bool scheduled(std::uint8_t s, Heard h) const {
    return !automaton_->quiescent(s, h.bits());
  }

  std::uint8_t transition(Vertex u, std::uint8_t s, Heard h, std::int64_t t) const {
    return automaton_->next(s, h.bits(),
                            coins_.word(t, u, CoinTag::kMisColor),
                            coins_.word(t, u, CoinTag::kSwitchBit));
  }

  // The activity column is the schedule: the nodes that act next round.
  bool active(std::uint8_t s, Heard h) const { return scheduled(s, h); }
  bool violating(std::uint8_t s, Heard h) const { return in_mis(s) == hears_mis(h); }
  bool stable_black(std::uint8_t s, Heard h) const { return in_mis(s) && !hears_mis(h); }

  // Stable-periodic fast-forward (engine.hpp): forwards the automaton's
  // orbit declaration, drawing the same coin words transition() would, so
  // a materialized state is bit-identical to having stepped every round.
  static constexpr std::int64_t kOrbitPeriodHint = 1;
  bool fast_forwardable(std::uint8_t s, Heard h) const {
    return automaton_->orbit(s, h.bits());
  }
  std::uint8_t orbit_color(Vertex u, std::uint8_t s, Heard h,
                           std::int64_t entry_round, std::int64_t now) const {
    if (now == entry_round) return s;
    return automaton_->orbit_state(s, h.bits(),
                                   coins_.word(now, u, CoinTag::kMisColor),
                                   coins_.word(now, u, CoinTag::kSwitchBit));
  }

  bool in_mis(std::uint8_t s) const { return in_mis_[s] != 0; }
  const StoneAgeAutomaton& automaton() const { return *automaton_; }

 private:
  bool hears_mis(Heard h) const { return (h.bits() & mis_channels_) != 0; }

  const StoneAgeAutomaton* automaton_;
  CoinOracle coins_;
  std::vector<std::uint8_t> in_mis_;  // automaton_->in_mis, per state
  std::uint32_t mis_channels_ = 0;    // bit j: MIS states beep on channel j
};

// The network as a Process: an EngineProcess whose colors are the
// automaton states (colors(), color(u)) and whose B_t is the nodes in MIS
// states. stabilized() is the engine's O(1) "no violation", so it equals
// is_mis(graph(), black_set()); the activity column A_t is the scheduled
// nodes. Fast-forward (on by default) engages only for automata that
// declare orbits; trajectories are bit-identical either way.
class StoneAgeNetwork final : public EngineProcess<StoneAgeRule> {
 public:
  // The automaton must outlive the network. Throws std::invalid_argument on
  // init size/state range violations and std::invalid_argument /
  // std::logic_error on an automaton StoneAgeRule rejects.
  StoneAgeNetwork(const Graph& g, const StoneAgeAutomaton& automaton,
                  std::vector<std::uint8_t> init, const CoinOracle& coins);

  // One round, counting the transmissions sent in it.
  void step() override;

  // Messages are letters from a constant alphabet: log2(channels+1) bits
  // of information per node per round.
  std::int64_t total_transmissions() const { return total_transmissions_; }

 private:
  std::int64_t total_transmissions_ = 0;
};

}  // namespace ssmis
