// Type-erased process runtime: ONE measurement path for every rule.
//
// `Process` erases the concrete process behind the interface the harness
// needs — step/round/stabilized/trace snapshot/output/verify/force-state/
// fault — so trial scheduling, timeout accounting, per-vertex times, fault
// injection (core/faults.hpp) and the CLI all work for any registered
// protocol (harness/registry.hpp).
//
// Its one implementation is `EngineProcess<Rule>` (core/engine_process.hpp),
// which owns the rule's ProcessEngine and answers every method from the MIS
// bookkeeping; each protocol's wrapper derives from it and overrides only
// what is its own (the 3-color lazy switch, the daemon's step, matching's
// edge states).
//
// Cost model: type erasure sits at ROUND granularity. The run loop below
// makes one virtual call each to step(), stabilized() and round() per round,
// a few ns next to a round body of O(|A_t| + sum deg(changed)): the cheapest
// round the repository benchmark runs (`recover32k-3state`, fault recovery
// among parked periodic vertices) costs about 5 us.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trace.hpp"
#include "graph/graph.hpp"

namespace ssmis {

enum class TraceMode { kNone, kPerRound };

class Process;

// Runs until stabilized() or until `max_rounds` further rounds have elapsed.
// With TraceMode::kPerRound the trace includes the initial state and every
// round end. Every snapshot aggregate is an O(1) engine read (|V_t| after
// the coverage build its first read pays), so a traced round costs the
// same O(|A_t| + sum deg(changed)) as an untraced one.
RunResult run_until_stabilized(Process& process, std::int64_t max_rounds,
                               TraceMode mode = TraceMode::kNone);

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
  // Gamma_t — protocols reinterpret them as documented in their wrapper).
  virtual RoundStats snapshot() const = 0;

  // run_until_stabilized on this process.
  RunResult run(std::int64_t max_rounds, TraceMode mode) {
    return run_until_stabilized(*this, max_rounds, mode);
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
  // isolated vertex under edge-state protocols).
  virtual bool inject_fault(Vertex u, std::uint64_t w) = 0;

  // Toggles the stable-periodic fast-forward optimization (on by default
  // where the protocol supports it; a no-op elsewhere). Purely a schedule
  // change: trajectories, aggregates, and outputs are bit-identical either
  // way, which tests/test_fast_forward.cpp pins.
  virtual void set_fast_forward(bool on) = 0;

 protected:
  // Processes are values (factories return them by value and the registry
  // moves them onto the heap); only a derived class copies or moves one.
  Process() = default;
  Process(const Process&) = default;
  Process(Process&&) = default;
  Process& operator=(const Process&) = default;
  Process& operator=(Process&&) = default;
};

inline RunResult run_until_stabilized(Process& process, std::int64_t max_rounds,
                                      TraceMode mode) {
  RunResult result;
  if (mode == TraceMode::kPerRound) result.trace.push_back(process.snapshot());
  const std::int64_t start = process.round();
  while (!process.stabilized() && process.round() - start < max_rounds) {
    process.step();
    if (mode == TraceMode::kPerRound) result.trace.push_back(process.snapshot());
  }
  result.stabilized = process.stabilized();
  result.rounds = process.round() - start;
  return result;
}

}  // namespace ssmis
