// EngineProcess<Rule>: the one Process implementation.
//
// Every protocol of the library is a ProcessEngine<Rule> (core/engine.hpp)
// read through the paper's MIS bookkeeping, so the Process surface is
// written once, here:
//
//   * the output is the black set B_t, validity is is_mis;
//   * settled(u) is coverage, u ∈ N+(I_t);
//   * the raw state is the engine color; the default fault is a uniformly
//     random color;
//   * the snapshot is (round, |B_t|, |A_t|, |I_t|, |V_t|, 0 grays).
//
// Beyond ProcessEngine's ProcessRule, the rule provides its MIS membership,
// `bool in_mis(Color c) const` — black for the direct processes, the
// automaton's MIS states for the networks — which black(u), black_set() and
// num_black() all read. Each wrapper (TwoStateMIS, ThreeColorMIS,
// BeepingNetwork, ...) derives from EngineProcess and overrides only what is
// its own: ThreeColorMIS's lazy switch, DaemonMIS's step and round,
// MaximalMatching's edge-state output and faults, the networks'
// communication counts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/process.hpp"
#include "core/verify.hpp"

namespace ssmis {

template <typename Rule>
class EngineProcess : public Process {
 public:
  using Engine = ProcessEngine<Rule>;
  using Color = typename Rule::Color;

  // Throws std::invalid_argument on an init whose size is not
  // g.num_vertices() or with a color outside the rule's range.
  EngineProcess(const Graph& g, std::vector<Color> init, Rule rule)
      : engine_(g, std::move(init), std::move(rule)) {}

  // Executes one synchronous round (round counter advances by one).
  void step() override { engine_.step(); }
  // Rounds executed so far; colors() is c_t with t = round().
  std::int64_t round() const override { return engine_.round(); }
  const Graph& graph() const override { return engine_.graph(); }
  // Stabilized ⟺ no MIS violation ⟺ the black set is an MIS (O(1)).
  bool stabilized() const override { return engine_.stabilized(); }

  const std::vector<Color>& colors() const { return engine_.colors(); }
  Color color(Vertex u) const { return engine_.color(u); }
  bool black(Vertex u) const { return engine_.rule().in_mis(color(u)); }
  std::vector<Vertex> black_set() const {
    return engine_.select([this](Vertex u) { return black(u); });
  }

  // |B_t|, |A_t|, |I_t|, |V_t|, all engine-maintained. |B_t| is a histogram
  // sum over the MIS colors: O(num_colors), and exact under fast-forward,
  // since an orbit keeps MIS membership constant.
  Vertex num_black() const {
    const Rule& rule = engine_.rule();
    return engine_.raw_color_count_if([&rule](Color c) { return rule.in_mis(c); });
  }
  Vertex num_active() const { return engine_.num_active(); }
  Vertex num_stable_black() const { return engine_.num_stable_black(); }
  Vertex num_unstable() const { return engine_.num_unstable(); }

  RoundStats snapshot() const override {
    RoundStats s;
    s.round = round();
    s.black = num_black();
    s.active = num_active();
    s.stable_black = num_stable_black();
    s.unstable = num_unstable();
    return s;
  }

  // Fault-injection / test hook: overwrite one vertex's color in O(deg(u)),
  // keeping the engine's counters consistent. A transient fault, not a round.
  void force_color(Vertex u, Color c) { engine_.force_color(u, c); }

  // Stable-periodic fast-forward (on by default for the rules that declare
  // orbits, a no-op for the others); bit-identical trajectories either way.
  void set_fast_forward(bool on) override { engine_.set_fast_forward(on); }

  std::vector<Vertex> output_set() const override { return black_set(); }
  bool settled(Vertex u) const override { return !engine_.unstable(u); }
  void verify_output() const override {
    verify_mis_output(engine_.graph(), black_set());
  }
  void force_state(Vertex u, std::uint8_t raw) override {
    force_color(u, static_cast<Color>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return static_cast<std::uint8_t>(color(u));
  }
  int num_colors() const override { return engine_.num_colors(); }
  bool inject_fault(Vertex u, std::uint64_t w) override {
    force_state(u, static_cast<std::uint8_t>(
                       w % static_cast<std::uint64_t>(num_colors())));
    return true;
  }

  const Engine& engine() const { return engine_; }

 protected:
  Engine engine_;
};

// The name the repository benchmark (perfbench/bench.cpp) wraps a directly
// built ThreeColorMIS in; every wrapper already is its own Process.
template <class P>
using MisFamilyAdapter = P;

}  // namespace ssmis
