// The beeping model with sender collision detection (a.k.a. full-duplex),
// as in Cornejo-Kuhn 2010 / Afek et al. 2013 — the communication model the
// 2-state MIS process targets (Section 1 of the paper).
//
// Per synchronous round, every node either beeps or listens, driven by a
// finite-state automaton with no IDs and no knowledge of the graph. The
// single bit a node receives is "did at least one *neighbor* beep?". Sender
// collision detection means a beeping node receives this bit too.
//
// The network simulator is a template over the automaton type, which it
// holds by value, so every automaton call is a direct (inlinable) call;
// `mis_automata.hpp` provides the 2-state MIS automaton, and the test suite
// proves its execution bit-identical to the direct TwoStateMIS simulation.
//
// Simulation substrate: the network runs on the same ProcessEngine as the
// direct processes (core/engine.hpp) — states are engine colors and the
// carrier-sense bit is the engine's Heard over an incrementally maintained
// beeping-neighbor counter, so a round costs O(|scheduled| + sum deg(nodes
// that changed state)) instead of an O(n + m) rescan. Automata that declare
// quiescent states get sparse scheduling; the others run dense with
// identical semantics, since every coin is a pure function of (seed, round,
// node, tag). The engine keeps the MIS bookkeeping too — the violation
// count, I_t and V_t — so the network is an EngineProcess like TwoStateMIS
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

enum class BeepAction : std::uint8_t { kListen = 0, kBeep = 1 };

// Node behavior, as a value type. States are opaque bytes; the automaton
// interprets them. Every member is required and const:
//
//   int num_states() const;
//   BeepAction emit(uint8_t state) const;
//       // what the node does this round, as a function of its state only
//   uint8_t next(uint8_t state, bool heard, uint64_t coin_word) const;
//       // the transition at the end of the round: `heard` is the feedback
//       // bit (some neighbor beeped), `coin_word` the node's 64 private
//       // random bits for the round
//   bool quiescent(uint8_t state, bool heard) const;
//       // scheduling hint: true only if next(state, heard, w) == state for
//       // EVERY coin word w. Constant false is always sound: it keeps every
//       // node on the worklist, i.e. dense stepping.
//   bool in_mis(uint8_t state) const;  // does this state claim MIS membership?
template <typename A>
concept BeepingAutomaton = requires(const A a, std::uint8_t s, bool heard, std::uint64_t w) {
  { a.num_states() } -> std::convertible_to<int>;
  { a.emit(s) } -> std::same_as<BeepAction>;
  { a.next(s, heard, w) } -> std::convertible_to<std::uint8_t>;
  { a.quiescent(s, heard) } -> std::convertible_to<bool>;
  { a.in_mis(s) } -> std::convertible_to<bool>;
};

// What a node's radio receives, fixed for the run.
//
// With `sender_collision_detection` (the paper's full-duplex assumption), a
// beeping node also receives the carrier-sense bit; without it, a beeping
// node learns nothing. The 2-state MIS algorithm provably needs the former
// — two adjacent black nodes could otherwise never detect their conflict
// (see the NoCollisionDetection tests for the stuck execution).
//
// `loss_probability` is a lossy-channel robustness knob: each round, each
// receiver's carrier-sense bit is independently suppressed (heard ->
// silence) with this probability — modeling fading/interference misses.
// The MIS processes tolerate this: losses can re-activate settled
// vertices, but self-stabilization pulls the system back (see exp_lossy).
struct BeepChannel {
  bool sender_collision_detection = true;
  double loss_probability = 0.0;
};

// Engine policy owning a BeepingAutomaton: one counter (beeping neighbors),
// carrier-sense/loss resolution in the transition. Counter 0 is the MIS
// counter, so the engine compares the automaton's in_mis with what a node
// hears before loss and sender collision detection: violations count the
// true configuration, not the node's possibly wrong view of it. The engine
// rejects an automaton that does not beep in exactly its MIS states.
template <BeepingAutomaton A>
class BeepingRule {
 public:
  using Color = std::uint8_t;

  // Throws std::invalid_argument unless the loss probability is in [0, 1)
  // (NaN included).
  BeepingRule(A automaton, const CoinOracle& coins, BeepChannel channel)
      : automaton_(std::move(automaton)), coins_(coins), channel_(channel) {
    if (!(channel_.loss_probability >= 0.0 && channel_.loss_probability < 1.0))
      throw std::invalid_argument("BeepingNetwork: need a loss probability in [0, 1)");
  }

  int num_colors() const { return automaton_.num_states(); }
  int num_counters() const { return 1; }
  Vertex contribution(std::uint8_t s, int) const { return beeps(s) ? 1 : 0; }

  // Scheduled unless the state is quiescent for every carrier-sense bit the
  // node could receive this round (loss can only turn heard -> silence).
  bool scheduled(std::uint8_t s, Heard h) const {
    const bool heard = effective_heard(s, h);
    if (!automaton_.quiescent(s, heard)) return true;
    return heard && channel_.loss_probability > 0.0 && !automaton_.quiescent(s, false);
  }

  std::uint8_t transition(Vertex u, std::uint8_t s, Heard h, std::int64_t t) const {
    bool heard = effective_heard(s, h);
    if (heard && channel_.loss_probability > 0.0 &&
        coins_.bernoulli(t, u, CoinTag::kNoise, channel_.loss_probability)) {
      heard = false;  // the carrier-sense bit was lost this round
    }
    return automaton_.next(s, heard, coins_.word(t, u, CoinTag::kMisColor));
  }

  // The activity column is the schedule: the nodes that act next round.
  bool active(std::uint8_t s, Heard h) const { return scheduled(s, h); }
  bool in_mis(std::uint8_t s) const { return automaton_.in_mis(s); }
  std::uint32_t mis_counters() const { return 1; }

  const BeepChannel& channel() const { return channel_; }

 private:
  bool beeps(std::uint8_t s) const { return automaton_.emit(s) == BeepAction::kBeep; }
  bool effective_heard(std::uint8_t s, Heard h) const {
    // Without sender collision detection, a beeping node's radio is busy
    // transmitting: it receives nothing this round.
    if (!channel_.sender_collision_detection && beeps(s)) return false;
    return h.has(0);
  }

  A automaton_;
  CoinOracle coins_;
  BeepChannel channel_;
};

// The network as a Process: an EngineProcess whose colors are the
// automaton states (colors(), color(u)) and whose B_t is the nodes in MIS
// states. stabilized() is the engine's O(1) "no violation", so it equals
// is_mis(graph(), black_set()) with or without loss and sender collision
// detection; the activity column A_t is the scheduled nodes.
template <BeepingAutomaton A>
class BeepingNetwork final : public EngineProcess<BeepingRule<A>> {
 public:
  // Throws std::invalid_argument on init size mismatch, states outside
  // [0, num_states), an automaton that does not beep in exactly its MIS
  // states, or a loss probability outside [0, 1). `channel` selects the
  // model variant (BeepChannel); the default is the paper's, lossless with
  // sender collision detection.
  BeepingNetwork(const Graph& g, A automaton, std::vector<std::uint8_t> init,
                 const CoinOracle& coins, BeepChannel channel = {})
      : EngineProcess<BeepingRule<A>>(
            g, std::move(init), BeepingRule<A>(std::move(automaton), coins, channel)) {}

  // One round, counting the beeps sent in it: broadcast accounting against
  // the frozen states, where exactly the MIS states beep, so the beeping
  // nodes are B_t.
  void step() final {
    beeps_last_round_ = this->num_black();
    total_beeps_ += beeps_last_round_;
    this->engine_.step();
  }

  // Communication accounting for experiment E13: every node sends at most
  // one bit per round (beep or silence).
  std::int64_t total_beeps() const { return total_beeps_; }
  Vertex beeps_last_round() const { return beeps_last_round_; }

  double loss_probability() const { return this->engine_.rule().channel().loss_probability; }

 private:
  std::int64_t total_beeps_ = 0;
  Vertex beeps_last_round_ = 0;
};

}  // namespace ssmis
