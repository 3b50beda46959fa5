// Type-erased process runtime: ONE measurement path for every rule.
//
// `Process` erases the concrete wrapper type behind the interface the
// harness needs — step/round/stabilized/trace snapshot/output/verify/
// force-state/fault — so trial scheduling, timeout accounting, per-vertex
// times, fault injection (core/faults.hpp) and the CLI all work for any
// registered protocol (harness/registry.hpp).
//
// Adapters: `MisProcessAdapter<P>` supplies the stepping half for any
// wrapper satisfying MisProcess (core/runner.hpp); `MisFamilyAdapter<P>`
// adds the MIS family's output, validity, coverage and fault half, and
// routes faults through the wrapper's own `inject_fault` when it has one
// (the 3-color switch level). Every engine-backed MIS wrapper registers
// through MisFamilyAdapter; `matching` derives from MisProcessAdapter and
// the communication-model networks implement Process directly.
//
// Cost model: type erasure sits at TRIAL granularity, not step granularity.
// A trial calls the virtual `run()` once; the adapter's override immediately
// re-enters the templated `run_until_stabilized` loop on the concrete
// wrapper, so the hot stepping loop has zero added indirection. Drivers
// that interleave work between rounds (per-vertex times, the interactive
// simulator) pay one virtual call per ROUND — noise next to the
// O(|A_t| + sum deg(changed)) round body.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/trace.hpp"
#include "core/verify.hpp"
#include "graph/graph.hpp"

namespace ssmis {

class Process {
 public:
  virtual ~Process() = default;

  virtual const Graph& graph() const = 0;

  // One synchronous round (or one daemon step, for scheduler-driven
  // protocols — `round()` then counts steps; the horizon semantics match).
  virtual void step() = 0;
  virtual std::int64_t round() const = 0;

  // The protocol's own fixed-point predicate: for the MIS family this is
  // "the claimed set is an MIS", for matching "no vertex wants to move".
  virtual bool stabilized() const = 0;

  // The paper's bookkeeping aggregates for this round (B_t, A_t, I_t, V_t,
  // Gamma_t — protocols reinterpret them as documented in their adapter).
  virtual RoundStats snapshot() const = 0;

  // Runs until stabilized() or `max_rounds` further rounds. The default
  // implementation loops over the virtual step(); engine-wrapper adapters
  // override it with the devirtualized run_until_stabilized hot loop.
  virtual RunResult run(std::int64_t max_rounds, TraceMode mode) {
    RunResult result;
    if (mode == TraceMode::kPerRound) result.trace.push_back(snapshot());
    const std::int64_t start = round();
    while (!stabilized() && round() - start < max_rounds) {
      step();
      if (mode == TraceMode::kPerRound) result.trace.push_back(snapshot());
    }
    result.stabilized = stabilized();
    result.rounds = round() - start;
    return result;
  }

  // The protocol's output: the claimed MIS / matched vertices / etc.,
  // ascending. Meaningful once stabilized (and best-effort before).
  virtual std::vector<Vertex> output_set() const = 0;

  // u is covered by the protocol's stable structure (u ∈ N+(I_t) for the
  // MIS family; protocol-defined otherwise). Drives the per-vertex
  // stabilization-time tables; must be monotone once no faults are injected
  // for protocols that report such tables.
  virtual bool settled(Vertex u) const = 0;

  // Checks the stabilized output against the protocol's global validity
  // predicate (is_mis, is_maximal_matching, ...) and throws std::logic_error
  // naming the violation if it fails — the harness never reports an invalid
  // "success". Called by the harness after every stabilized trial.
  virtual void verify_output() const = 0;

  // Fault-injection hook: overwrite one vertex's raw state byte, keeping
  // the engine's counters/worklist consistent. Throws std::out_of_range /
  // std::invalid_argument on a bad vertex or state value.
  virtual void force_state(Vertex u, std::uint8_t raw_state) = 0;

  // Raw state byte of u (the engine color; decodes per protocol).
  virtual std::uint8_t raw_state(Vertex u) const = 0;

  // Number of raw state values force_state accepts.
  virtual int num_colors() const = 0;

  // Corrupts u's FULL per-vertex state (auxiliary clocks included) from 64
  // random bits — the transient-fault primitive behind the generic
  // inject_faults(Process&, ...). Returns whether any state was actually
  // overwritten (a protocol may have nothing to corrupt at u, e.g. an
  // isolated vertex under edge-state protocols). Default: a uniformly
  // random raw color.
  virtual bool inject_fault(Vertex u, std::uint64_t w) {
    force_state(u, static_cast<std::uint8_t>(
                       w % static_cast<std::uint64_t>(num_colors())));
    return true;
  }

  // Toggles the stable-periodic fast-forward optimization (on by default
  // where the protocol supports it; a no-op elsewhere). Purely a schedule
  // change: trajectories, aggregates, and outputs are bit-identical either
  // way, which tests/test_fast_forward.cpp pins.
  virtual void set_fast_forward(bool /*on*/) {}
};

// Optional per-wrapper toggle for the stable-periodic fast-forward
// schedule; wrappers without it silently ignore the request.
template <typename P>
concept ProcessHasFastForwardToggle = requires(P& p, bool on) {
  p.set_fast_forward(on);
};

// Optional per-wrapper fault hook for protocols whose per-vertex state is
// more than the engine color (the 3-color switch level); wrappers without
// it get Process's default, a random color through force_state.
template <typename P>
concept ProcessHasFaultHook = requires(P& p, Vertex u, std::uint64_t w) {
  { p.inject_fault(u, w) } -> std::convertible_to<bool>;
};

// Adapter for wrappers satisfying the MisProcess concept (the direct
// engine-backed processes). Derived classes supply output/verify/settled/
// force-state; stepping, snapshots, and the devirtualized run loop are
// shared here.
template <MisProcess P>
class MisProcessAdapter : public Process {
 public:
  explicit MisProcessAdapter(P process) : process_(std::move(process)) {}

  const Graph& graph() const override { return process_.graph(); }
  void step() override { process_.step(); }
  std::int64_t round() const override { return process_.round(); }
  bool stabilized() const override { return process_.stabilized(); }
  RoundStats snapshot() const override { return ssmis::snapshot(process_); }
  RunResult run(std::int64_t max_rounds, TraceMode mode) override {
    return run_until_stabilized(process_, max_rounds, mode);
  }
  void set_fast_forward(bool on) override {
    if constexpr (ProcessHasFastForwardToggle<P>)
      process_.set_fast_forward(on);
    else
      (void)on;
  }

  P& impl() { return process_; }
  const P& impl() const { return process_; }

 protected:
  P process_;
};

// The obligations MisFamilyAdapter places on a wrapper beyond MisProcess —
// previously a prose comment, now a named concept so a wrapper missing one
// fails with `MisFamilyProcess` in the diagnostic instead of a template
// error inside an override body.
template <typename P>
concept MisFamilyProcess =
    MisProcess<P> &&
    requires(P p, const P cp, Vertex u, typename P::Engine::Color c) {
      typename P::Engine;
      cp.colors();
      { cp.black_set() } -> std::convertible_to<std::vector<Vertex>>;
      p.force_color(u, c);
      { cp.engine().unstable(u) } -> std::convertible_to<bool>;
      { cp.engine().num_colors() } -> std::convertible_to<int>;
    };

// Shared adapter for the MIS-family wrappers: output is the black set, the
// validity predicate is is_mis, settled(u) is membership in N+(I_t) (the
// engine's coverage counters), and faults route through force_color — or
// through the wrapper's own inject_fault (ProcessHasFaultHook) when its
// per-vertex state carries more than the color.
template <MisFamilyProcess P>
class MisFamilyAdapter : public MisProcessAdapter<P> {
 public:
  using Color = typename P::Engine::Color;
  using MisProcessAdapter<P>::MisProcessAdapter;

  std::vector<Vertex> output_set() const override {
    return this->process_.black_set();
  }
  bool settled(Vertex u) const override {
    return !this->process_.engine().unstable(u);
  }
  void verify_output() const override {
    verify_mis_output(this->graph(), this->process_.black_set());
  }
  void force_state(Vertex u, std::uint8_t raw) override {
    this->process_.force_color(u, static_cast<Color>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return static_cast<std::uint8_t>(
        this->process_.colors()[static_cast<std::size_t>(u)]);
  }
  int num_colors() const override { return this->process_.engine().num_colors(); }
  bool inject_fault(Vertex u, std::uint64_t w) override {
    if constexpr (ProcessHasFaultHook<P>)
      return this->process_.inject_fault(u, w);
    else
      return Process::inject_fault(u, w);
  }
};

}  // namespace ssmis
