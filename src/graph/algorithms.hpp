// Classical graph algorithms used by the harness, verifiers, and the
// good-graph checker. These may use global views of the graph; the MIS
// processes themselves never do.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace ssmis {

// BFS distances from `source`; unreachable vertices get -1.
std::vector<std::int64_t> bfs_distances(const Graph& g, Vertex source);

// Connected component id per vertex (ids are dense, in discovery order).
std::vector<Vertex> connected_components(const Graph& g);

// Number of connected components.
Vertex num_components(const Graph& g);

// Exact diameter via BFS from every vertex: O(n(n+m)). Returns nullopt for
// disconnected graphs, 0 for graphs with <= 1 vertex.
std::optional<std::int64_t> diameter(const Graph& g);

// True iff every pair of distinct vertices is adjacent or shares a common
// neighbor. O(sum deg^2) — cheaper than full diameter for the diam <= 2 test
// used by good-graph property P6.
bool has_diameter_at_most_2(const Graph& g);

// True iff g is connected and acyclic.
bool is_tree(const Graph& g);
// True iff g is acyclic (forest).
bool is_forest(const Graph& g);

// Degeneracy (max over subgraphs of the min degree) and a degeneracy
// ordering; computed by repeated min-degree removal in O(n + m).
struct DegeneracyResult {
  Vertex degeneracy = 0;
  std::vector<Vertex> order;  // removal order
};
DegeneracyResult degeneracy(const Graph& g);

// Arboricity bounds from degeneracy: arboricity(G) is within
// [ceil(degeneracy/2), degeneracy] (and >= max subgraph density bound).
struct ArboricityBounds {
  Vertex lower = 0;
  Vertex upper = 0;
};
ArboricityBounds arboricity_bounds(const Graph& g);

// |N(u) ∩ N(v)| for one pair (merge of sorted adjacency lists).
Vertex common_neighbors(const Graph& g, Vertex u, Vertex v);

// max over all vertex pairs of |N(u) ∩ N(v)| (property P5 input).
// O(sum_v deg(v)^2) via per-wedge counting.
Vertex max_common_neighbors(const Graph& g);

// Number of triangles (for generator sanity tests).
std::int64_t triangle_count(const Graph& g);

// Exact maximum independent set by branch-and-bound with max-degree
// pivoting. Exponential worst case; intended for n <= ~40 (the MIS-quality
// experiment and tests). Throws std::invalid_argument above `max_n`.
std::vector<Vertex> exact_max_independent_set(const Graph& g, Vertex max_n = 48);

// Smallest possible MIS size (minimum *maximal* independent set, i.e. the
// independent domination number), same branch-and-bound regime.
Vertex independent_domination_number(const Graph& g, Vertex max_n = 32);

}  // namespace ssmis
