// Named graph suites used by the cross-cutting experiments (baselines,
// model-equivalence, fault recovery) and by the property-based tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace ssmis {

struct NamedGraph {
  std::string name;
  Graph graph;
};

// Small, structurally diverse graphs (n <= ~260): every family the paper
// mentions. Deterministic given `seed`.
std::vector<NamedGraph> small_suite(std::uint64_t seed);

// Corner cases: empty, singleton, isolated vertices, K_2, disconnected.
std::vector<NamedGraph> corner_suite();

}  // namespace ssmis
