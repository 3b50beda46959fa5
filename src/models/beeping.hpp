// The beeping model with sender collision detection (a.k.a. full-duplex),
// as in Cornejo-Kuhn 2010 / Afek et al. 2013 — the communication model the
// 2-state MIS process targets (Section 1 of the paper).
//
// Per synchronous round, every node either beeps or listens, driven by a
// finite-state automaton with no IDs and no knowledge of the graph. The
// single bit a node receives is "did at least one *neighbor* beep?". Sender
// collision detection means a beeping node receives this bit too.
//
// The network simulator is generic over the automaton; `mis_automata.hpp`
// provides the 2-state MIS automaton, and the test suite proves its
// execution bit-identical to the direct TwoStateMIS simulation.
//
// Simulation substrate: the network runs on the same ProcessEngine as the
// direct processes (core/engine.hpp) — states are engine colors and the
// carrier-sense bit is the engine's Heard over an incrementally maintained
// beeping-neighbor counter, so a round costs O(|scheduled| + sum deg(nodes
// that changed state)) instead of an O(n + m) rescan. Automata that declare
// quiescent states (see `BeepingAutomaton::quiescent`) get sparse
// scheduling; others run dense with identical semantics, since every coin is
// a pure function of (seed, round, node, tag).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

enum class BeepAction : std::uint8_t { kListen = 0, kBeep = 1 };

// Node behavior. States are opaque bytes; the automaton interprets them.
class BeepingAutomaton {
 public:
  virtual ~BeepingAutomaton() = default;

  virtual int num_states() const = 0;

  // What the node does this round, as a function of its state only.
  virtual BeepAction emit(std::uint8_t state) const = 0;

  // Transition at the end of the round. `heard` is the feedback bit (some
  // neighbor beeped); `coin_word` is the node's private randomness for the
  // round (64 uniform bits).
  virtual std::uint8_t next(std::uint8_t state, bool heard,
                            std::uint64_t coin_word) const = 0;

  // Scheduling hint for the sparse engine: return true only if
  // next(state, heard, w) == state for EVERY coin word w. The default
  // (never quiescent) is always sound — it merely keeps every node on the
  // worklist, i.e. dense stepping.
  virtual bool quiescent(std::uint8_t /*state*/, bool /*heard*/) const {
    return false;
  }

  // Interpretation hook: does this state claim MIS membership?
  virtual bool in_mis(std::uint8_t state) const = 0;
};

// Engine policy wrapping a BeepingAutomaton: one counter (beeping
// neighbors), carrier-sense/loss resolution in the transition.
class BeepingRule {
 public:
  using Color = std::uint8_t;
  static constexpr bool kTracksStability = false;

  BeepingRule(const BeepingAutomaton* automaton, const CoinOracle& coins,
              bool sender_collision_detection)
      : automaton_(automaton), coins_(coins), sender_cd_(sender_collision_detection) {}

  int num_colors() const { return automaton_->num_states(); }
  int num_counters() const { return 1; }
  Vertex contribution(std::uint8_t s, int) const {
    return automaton_->emit(s) == BeepAction::kBeep ? 1 : 0;
  }

  // Scheduled unless the state is quiescent for every carrier-sense bit the
  // node could receive this round (loss can only turn heard -> silence).
  bool scheduled(std::uint8_t s, Heard h) const {
    const bool heard = effective_heard(s, h);
    if (!automaton_->quiescent(s, heard)) return true;
    return heard && loss_probability_ > 0.0 && !automaton_->quiescent(s, false);
  }

  std::uint8_t transition(Vertex u, std::uint8_t s, Heard h, std::int64_t t) const {
    bool heard = effective_heard(s, h);
    if (heard && loss_probability_ > 0.0 &&
        coins_.bernoulli(t, u, CoinTag::kNoise, loss_probability_)) {
      heard = false;  // the carrier-sense bit was lost this round
    }
    return automaton_->next(s, heard, coins_.word(t, u, CoinTag::kMisColor));
  }

  const BeepingAutomaton& automaton() const { return *automaton_; }
  bool sender_collision_detection() const { return sender_cd_; }
  double loss_probability() const { return loss_probability_; }
  void set_loss_probability(double p) { loss_probability_ = p; }

 private:
  bool effective_heard(std::uint8_t s, Heard h) const {
    // Without sender collision detection, a beeping node's radio is busy
    // transmitting: it receives nothing this round.
    if (!sender_cd_ && automaton_->emit(s) == BeepAction::kBeep) return false;
    return h.has(0);
  }

  const BeepingAutomaton* automaton_;
  CoinOracle coins_;
  bool sender_cd_;
  double loss_probability_ = 0.0;
};

class BeepingNetwork {
 public:
  using Engine = ProcessEngine<BeepingRule>;

  // The automaton must outlive the network. Throws std::invalid_argument on
  // init size mismatch or states outside [0, num_states).
  //
  // `sender_collision_detection` selects the model variant: with it (the
  // paper's full-duplex assumption), a beeping node also receives the
  // carrier-sense bit; without it, a beeping node learns nothing. The
  // 2-state MIS algorithm provably needs the former — two adjacent black
  // nodes could otherwise never detect their conflict (see the
  // NoCollisionDetection tests for the stuck execution).
  BeepingNetwork(const Graph& g, const BeepingAutomaton& automaton,
                 std::vector<std::uint8_t> init, const CoinOracle& coins,
                 bool sender_collision_detection = true);

  void step();
  std::int64_t round() const { return engine_.round(); }

  const std::vector<std::uint8_t>& states() const { return engine_.colors(); }
  std::uint8_t state(Vertex u) const { return engine_.color(u); }

  std::vector<Vertex> claimed_mis() const;

  // Communication accounting for experiment E13: every node sends at most
  // one bit per round (beep or silence).
  std::int64_t total_beeps() const { return total_beeps_; }
  Vertex beeps_last_round() const { return beeps_last_round_; }

  const Graph& graph() const { return engine_.graph(); }
  bool sender_collision_detection() const {
    return engine_.rule().sender_collision_detection();
  }

  // Lossy-channel robustness knob: each round, each receiver's carrier-sense
  // bit is independently suppressed (heard -> silence) with this probability
  // — modeling fading/interference misses. The MIS processes tolerate this:
  // losses can re-activate settled vertices, but self-stabilization pulls
  // the system back (see exp_lossy). Throws std::invalid_argument unless
  // p is in [0, 1) (NaN included).
  void set_loss_probability(double p);
  double loss_probability() const { return engine_.rule().loss_probability(); }

  // Stable-periodic fast-forward toggle: accepted for A/B symmetry with
  // the other networks, but a no-op here — BeepingAutomaton declares no
  // orbits (the 2-state family's stable states are quiescent, i.e. already
  // off the worklist), so the engine compiles the machinery away.
  void set_fast_forward(bool on) { engine_.set_fast_forward(on); }
  bool fast_forward_enabled() const { return engine_.fast_forward_enabled(); }

  // Fault-injection / test hook: overwrite one node's automaton state in
  // O(deg(u)), keeping the beep counters consistent. Not a round.
  void force_state(Vertex u, std::uint8_t s) { engine_.force_color(u, s); }

  const Engine& engine() const { return engine_; }

 private:
  Engine engine_;
  std::int64_t total_beeps_ = 0;
  Vertex beeps_last_round_ = 0;
};

}  // namespace ssmis
