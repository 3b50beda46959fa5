// MIS verification and reference construction.
//
// These functions take the global graph view (which the distributed
// processes never do) and are the ground truth for tests, the runner's
// stabilization cross-checks, and the experiment harness.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace ssmis {

// No two set members are adjacent. Accepts membership as a 0/1 vector of
// size n. Throws std::invalid_argument on size mismatch.
bool is_independent_set(const Graph& g, const std::vector<char>& in_set);

// Every non-member has a member neighbor (i.e. the set is dominating, which
// together with independence makes it maximal).
bool is_maximal(const Graph& g, const std::vector<char>& in_set);

bool is_mis(const Graph& g, const std::vector<char>& in_set);

// Vertex-list conveniences.
bool is_independent_set(const Graph& g, const std::vector<Vertex>& members);
bool is_maximal(const Graph& g, const std::vector<Vertex>& members);
bool is_mis(const Graph& g, const std::vector<Vertex>& members);

// Human-readable description of the first violation found, or nullopt if
// the set is an MIS. For test failure messages.
std::optional<std::string> find_mis_violation(const Graph& g,
                                              const std::vector<char>& in_set);

// Harness-side validity abort of every MIS-family Process (EngineProcess):
// throws std::logic_error naming the violation unless `claimed` is an MIS.
void verify_mis_output(const Graph& g, const std::vector<Vertex>& claimed);

// Matching validity over an explicit EDGE list: every listed pair is a real
// edge of g and no vertex appears twice.
bool is_matching(const Graph& g, const std::vector<Edge>& matching);

// Maximal matching: a matching such that every edge of g shares an endpoint
// with a matching edge (nothing can be added).
bool is_maximal_matching(const Graph& g, const std::vector<Edge>& matching);

// First maximal-matching violation, or nullopt. For test failure messages
// and the harness's validity aborts.
std::optional<std::string> find_matching_violation(
    const Graph& g, const std::vector<Edge>& matching);

// Deterministic greedy maximal matching (ascending edge order): the
// reference answer for size comparisons. Returns matched pairs (u < v).
std::vector<Edge> greedy_maximal_matching(const Graph& g);

// Deterministic greedy MIS (ascending vertex order): the reference answer
// for size comparisons.
std::vector<Vertex> greedy_mis(const Graph& g);

std::vector<char> members_to_mask(Vertex n, const std::vector<Vertex>& members);

}  // namespace ssmis
