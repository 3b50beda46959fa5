#include "models/mis_automata.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/init.hpp"
#include "core/process.hpp"
#include "core/verify.hpp"
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

// --- registry adapters ------------------------------------------------------
//
// The network protocols run the MIS automata through the communication-model
// simulators. The engine does not track MIS stability for generic automata
// (kTracksStability is off), so the adapters read the fixed point off the
// engine worklist instead: a stabilized configuration leaves only benign
// vertices scheduled, and every scheduled vertex is inspected in
// O(|worklist|) — the same order as the round cost itself. snapshot()
// reports B_t (in-MIS states) and the scheduled-set size as the activity
// column; the coverage aggregates (I_t, V_t) are not tracked and read 0.

// 2-state MIS as a beeping automaton (sender collision detection).
class BeepingMisProcess final : public Process {
 public:
  BeepingMisProcess(const Graph& g, std::vector<std::uint8_t> init,
                    const CoinOracle& coins, bool sender_cd, double loss)
      : net_(g, automaton_, std::move(init), coins, sender_cd) {
    // Unconditional: set_loss_probability validates the range, so a bad
    // --proto-loss (negative, NaN, >= 1) aborts instead of silently
    // running lossless.
    net_.set_loss_probability(loss);
  }

  const Graph& graph() const override { return net_.graph(); }
  void step() override { net_.step(); }
  std::int64_t round() const override { return net_.round(); }

  // With sender collision detection, every MIS violation keeps its vertex
  // scheduled, so lossless runs read stabilization off the worklist size
  // (O(1)) and lossy runs scan the worklist (covered whites stay scheduled
  // because a lost carrier-sense bit could wake them — any scheduled black,
  // or scheduled white hearing no beep, is a violation). WITHOUT sender CD
  // a conflicting black never hears its rival and falls off the worklist
  // while the configuration is invalid, so that (demonstration) mode pays
  // an O(n) scan per check instead of misreporting a stuck execution as
  // stabilized.
  bool stabilized() const override {
    const auto& e = net_.engine();
    if (!net_.sender_collision_detection()) {
      for (Vertex u = 0; u < graph().num_vertices(); ++u) {
        const bool black = net_.state(u) == TwoStateBeepAutomaton::kBlack;
        if (black ? e.counter(u, 0) > 0 : e.counter(u, 0) == 0) return false;
      }
      return true;
    }
    if (net_.loss_probability() == 0.0) return e.num_scheduled() == 0;
    for (Vertex u : e.worklist().items()) {
      if (net_.state(u) == TwoStateBeepAutomaton::kBlack || e.counter(u, 0) == 0)
        return false;
    }
    return true;
  }

  RoundStats snapshot() const override {
    RoundStats s;
    s.round = net_.round();
    s.black = net_.engine().color_count(TwoStateBeepAutomaton::kBlack);
    s.active = net_.engine().num_scheduled();
    return s;
  }

  std::vector<Vertex> output_set() const override { return net_.claimed_mis(); }

  // u is covered by a stable black (a beeping node hearing silence).
  bool settled(Vertex u) const override {
    const auto& e = net_.engine();
    auto stable_black = [&](Vertex v) {
      return net_.state(v) == TwoStateBeepAutomaton::kBlack && e.counter(v, 0) == 0;
    };
    if (stable_black(u)) return true;
    bool covered = false;
    graph().for_each_neighbor(u, [&](Vertex v) {
      covered = stable_black(v);
      return !covered;
    });
    return covered;
  }

  void verify_output() const override {
    verify_mis_output(graph(), net_.claimed_mis());
  }

  void force_state(Vertex u, std::uint8_t raw) override {
    net_.force_state(u, raw);
  }
  std::uint8_t raw_state(Vertex u) const override { return net_.state(u); }
  int num_colors() const override { return net_.engine().num_colors(); }
  void set_fast_forward(bool on) override { net_.set_fast_forward(on); }

 private:
  TwoStateBeepAutomaton automaton_;  // must outlive (and precede) net_
  BeepingNetwork net_;
};

// 3-state MIS as a 2-channel stone-age automaton (no collision detection).
class StoneAgeMisProcess final : public Process {
 public:
  StoneAgeMisProcess(const Graph& g, std::vector<std::uint8_t> init,
                     const CoinOracle& coins)
      : net_(g, automaton_, std::move(init), coins) {}

  const Graph& graph() const override { return net_.graph(); }
  void step() override { net_.step(); }
  std::int64_t round() const override { return net_.round(); }

  // Stable blacks stay scheduled forever (they re-randomize black1/black0
  // by design), so the worklist never empties: stabilized ⟺ every
  // scheduled vertex is a black hearing no black neighbor (whites off the
  // worklist are covered by construction).
  bool stabilized() const override {
    const auto& e = net_.engine();
    for (Vertex u : e.worklist().items()) {
      if (net_.state(u) == ThreeStateStoneAgeAutomaton::kWhite) return false;
      if (e.counter(u, 0) + e.counter(u, 1) != 0) return false;
    }
    return true;
  }

  RoundStats snapshot() const override {
    RoundStats s;
    s.round = net_.round();
    // Raw histogram sum: exact under fast-forward (parked orbits stay
    // within {black0, black1}) and O(1) per round.
    s.black = net_.engine().raw_color_count(ThreeStateStoneAgeAutomaton::kBlack0) +
              net_.engine().raw_color_count(ThreeStateStoneAgeAutomaton::kBlack1);
    s.active = net_.engine().num_scheduled();
    return s;
  }

  std::vector<Vertex> output_set() const override { return net_.claimed_mis(); }

  bool settled(Vertex u) const override {
    const auto& e = net_.engine();
    auto stable_black = [&](Vertex v) {
      return net_.state(v) != ThreeStateStoneAgeAutomaton::kWhite &&
             e.counter(v, 0) + e.counter(v, 1) == 0;
    };
    if (stable_black(u)) return true;
    bool covered = false;
    graph().for_each_neighbor(u, [&](Vertex v) {
      covered = stable_black(v);
      return !covered;
    });
    return covered;
  }

  void verify_output() const override {
    verify_mis_output(graph(), net_.claimed_mis());
  }

  void force_state(Vertex u, std::uint8_t raw) override {
    net_.force_state(u, raw);
  }
  std::uint8_t raw_state(Vertex u) const override { return net_.state(u); }
  int num_colors() const override { return net_.engine().num_colors(); }
  void set_fast_forward(bool on) override { net_.set_fast_forward(on); }

 private:
  ThreeStateStoneAgeAutomaton automaton_;  // must outlive (and precede) net_
  StoneAgeNetwork net_;
};

const ProtocolRegistrar kBeepingProtocol{
    "beeping",
    "the 2-state MIS automaton in the beeping model (1 bit/round; "
    "--proto-sender-cd=0 disables sender collision detection, "
    "--proto-loss sets the carrier-sense loss rate, "
    "--proto-fast-forward=0 disables stable-periodic fast-forward — a no-op "
    "A/B knob here, the automaton declares no orbits); lossless runs are "
    "bit-identical to 2state",
    {"sender-cd", "loss", "fast-forward"},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      const auto c2 = make_init2(g, params.init, coins);
      std::vector<std::uint8_t> init(c2.size());
      for (std::size_t i = 0; i < c2.size(); ++i)
        init[i] = TwoStateBeepAutomaton::encode(c2[i]);
      auto p = std::make_unique<BeepingMisProcess>(
          g, std::move(init), coins, params.get_bool("sender-cd", true),
          params.get_double("loss", 0.0));
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
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
      auto p = std::make_unique<StoneAgeMisProcess>(g, std::move(init), coins);
      p->set_fast_forward(params.get_bool("fast-forward", true));
      return p;
    }};

}  // namespace

}  // namespace ssmis
