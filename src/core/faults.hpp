// Transient-fault injection.
//
// Self-stabilization (Dijkstra 1974) means convergence from *any* state, so
// a transient fault — an adversary rewriting a subset of vertex states — is
// survived by construction: the post-fault configuration is just another
// initial state. The injector makes this concrete for the fault-recovery
// experiment and example: it corrupts a random fraction of vertices to
// uniformly random states, deterministically per (fraction, salt), through
// the one type-erased path every registered protocol shares.
#pragma once

#include <cstdint>

#include "core/process.hpp"

namespace ssmis {

struct FaultReport {
  Vertex corrupted = 0;  // number of vertices chosen and rewritten
};

// Corrupts each vertex independently w.p. `fraction` through
// Process::inject_fault, which covers the full per-vertex state (the 3-color
// switch level included). Deterministic per (fraction, salt); `salt`
// decorrelates successive injections.
FaultReport inject_faults(Process& process, double fraction, std::int64_t salt);

}  // namespace ssmis
