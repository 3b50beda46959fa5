// EngineProcess<Rule>: the one Process implementation.
//
// Every protocol of the library is a ProcessEngine<Rule> (core/engine.hpp)
// on the graph it was given, read through the paper's MIS bookkeeping, so
// the Process surface is written once, here:
//
//   * the output is the black set B_t, validity is is_mis;
//   * settled(u) is coverage, u ∈ N+(I_t);
//   * the raw state is the engine color; the default fault is a uniformly
//     random color;
//   * the snapshot is (round, |B_t|, |A_t|, |I_t|, |V_t|, 0 grays).
//
// graph, output_set, settled, verify_output, force_state, raw_state and
// num_colors are final: no wrapper can give a protocol another graph,
// output, validity or state encoding.
// black(u), black_set() and num_black() read the rule's MIS membership,
// `in_mis(c)` (part of ProcessRule) — black for the direct processes, the
// automaton's MIS states for the networks. Each wrapper (TwoStateMIS,
// ThreeColorMIS, BeepingNetwork, ...) derives from EngineProcess and
// overrides only what is its own: ThreeColorMIS's switch, fault and
// snapshot, DaemonMIS's step and round, the networks' communication
// counts.
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
  const Graph& graph() const final { return engine_.graph(); }
  // Stabilized ⟺ no MIS violation ⟺ the black set is an MIS (O(1)).
  bool stabilized() const override { return engine_.stabilized(); }

  const std::vector<Color>& colors() const { return engine_.colors(); }
  Color color(Vertex u) const { return engine_.color(u); }
  bool black(Vertex u) const { return engine_.rule().in_mis(color(u)); }
  // B_t in ascending order. An exact-state read: it materializes the parked
  // orbits in one bulk sync (engine colors()), not one refresh pass per
  // parked vertex as color(u) would, then scans the colors.
  std::vector<Vertex> black_set() const {
    const std::vector<Color>& colors = engine_.colors();
    const Rule& rule = engine_.rule();
    std::vector<Vertex> out;
    out.reserve(static_cast<std::size_t>(num_black()));
    for (std::size_t u = 0; u < colors.size(); ++u)
      if (rule.in_mis(colors[u])) out.push_back(narrow_cast<Vertex>(u));
    return out;
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

  // Reads the engine's round directly, not through the virtual round(): a
  // wrapper whose round differs (DaemonMIS) overrides snapshot() as well.
  RoundStats snapshot() const override {
    RoundStats s;
    s.round = engine_.round();
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

  std::vector<Vertex> output_set() const final { return black_set(); }
  bool settled(Vertex u) const final { return !engine_.unstable(u); }
  void verify_output() const final {
    verify_mis_output(engine_.graph(), black_set());
  }
  void force_state(Vertex u, std::uint8_t raw) final {
    force_color(u, static_cast<Color>(raw));
  }
  std::uint8_t raw_state(Vertex u) const final {
    return static_cast<std::uint8_t>(color(u));
  }
  int num_colors() const final { return engine_.num_colors(); }
  void inject_fault(Vertex u, std::uint64_t w) override {
    force_state(u, static_cast<std::uint8_t>(
                       w % static_cast<std::uint64_t>(num_colors())));
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
