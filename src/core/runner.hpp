// Drives a process to stabilization and records traces.
//
// The run loop, run_until_stabilized, is declared with Process
// (core/process.hpp): every process — the direct ones and the
// communication-model simulations — is a Process, so every experiment is
// written once against that interface.
#pragma once

#include <string>

#include "core/process.hpp"

namespace ssmis {

// CSV rendering of a trace ("round,black,active,stable_black,unstable,gray").
std::string trace_to_csv(const RunResult& result);

}  // namespace ssmis
