// Type-erased process runtime: ONE measurement path for every rule.
//
// `Process` erases the concrete process behind the interface the harness
// needs — step/round/stabilized/trace snapshot/output/verify/force-state/
// fault — so trial scheduling, timeout accounting, per-vertex times, fault
// injection (core/faults.hpp) and the CLI all work for any registered
// protocol (harness/registry.hpp).
//
// Every protocol is an MIS process: its output is the black set B_t, a
// vertex is settled once it is in N+(I_t), and validity is is_mis. The one
// implementation is `EngineProcess<Rule>` (core/engine_process.hpp), which
// owns the rule's ProcessEngine, answers those reads from the MIS
// bookkeeping and marks them final; each protocol's wrapper derives from it
// and overrides only its stepping, snapshot and faults (the 3-color lazy
// switch, the daemon's step).
//
// Cost model: type erasure sits at ROUND granularity. The run loop below
// makes one virtual call each to step(), stabilized() and round() per round,
// a few ns next to a round body of O(|A_t| + sum deg(changed)): the cheapest
// rounds the repository benchmark runs (`recover32k-3state`, fault recovery
// among parked periodic vertices) cost about 2 us at the median and 16 us
// at the 95th percentile (traced, on a 4-vCPU Xeon VM).
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

  // The graph the process runs on.
  virtual const Graph& graph() const = 0;

  // One synchronous round (or one daemon step, for scheduler-driven
  // protocols — `round()` then counts steps; the horizon semantics match).
  virtual void step() = 0;
  virtual std::int64_t round() const = 0;

  // The fixed-point predicate: the black set is an MIS.
  virtual bool stabilized() const = 0;

  // The paper's bookkeeping aggregates for this round: |B_t|, |A_t|, |I_t|,
  // |V_t|, and the gray count Gamma_t (ThreeColorMIS only; 0 elsewhere).
  virtual RoundStats snapshot() const = 0;

  // run_until_stabilized on this process.
  RunResult run(std::int64_t max_rounds, TraceMode mode) {
    return run_until_stabilized(*this, max_rounds, mode);
  }

  // The black set B_t, ascending: the MIS once stabilized (B_t = I_t then),
  // the current black vertices before.
  virtual std::vector<Vertex> output_set() const = 0;

  // u ∈ N+(I_t): u is a stable black (a black without a black neighbor) or
  // a neighbor of one. Drives the per-vertex stabilization-time tables;
  // monotone while no faults are injected.
  virtual bool settled(Vertex u) const = 0;

  // Checks the output with is_mis and throws std::logic_error naming the
  // violation if it fails — the harness never reports an invalid
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
  // inject_faults(Process&, ...). Every vertex has a state to corrupt.
  virtual void inject_fault(Vertex u, std::uint64_t w) = 0;

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
