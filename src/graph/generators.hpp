// Graph family generators: every workload named by the paper plus the
// geometric family used by the sensor-network example.
//
// All randomized generators take an explicit seed and are deterministic given
// (parameters, seed).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace ssmis {
namespace gen {

// --- Deterministic families -------------------------------------------------

// Complete graph K_n (Theorem 8 workload).
Graph complete(Vertex n);

// Path P_n (arboricity 1).
Graph path(Vertex n);

// Cycle C_n.
Graph cycle(Vertex n);

// Star K_{1,n-1}: vertex 0 is the hub. Diameter 2 for n >= 3 (a useful
// logarithmic-switch workload that is *not* dense).
Graph star(Vertex n);

// Complete bipartite K_{a,b}; sides [0,a) and [a,a+b).
Graph complete_bipartite(Vertex a, Vertex b);

// `count` disjoint copies of K_size (Remark 9 workload: sqrt(n) cliques of
// size sqrt(n)).
Graph disjoint_cliques(Vertex count, Vertex size);

// rows x cols grid (max degree 4).
Graph grid(Vertex rows, Vertex cols);

// rows x cols torus (4-regular for rows, cols >= 3).
Graph torus(Vertex rows, Vertex cols);

// d-dimensional hypercube: 2^dim vertices, dim-regular.
Graph hypercube(int dim);

// Complete binary tree on n vertices (heap indexing).
Graph binary_tree(Vertex n);

// Caterpillar: a path of `spine` vertices, each with `legs` pendant leaves.
Graph caterpillar(Vertex spine, Vertex legs);

// Two cliques of size k joined by a single edge ("barbell"): a worst case
// for symmetry breaking across the bridge.
Graph barbell(Vertex k);

// --- Randomized families ----------------------------------------------------

// Erdos-Renyi G(n,p), sampled edge-by-edge with geometric skips and built
// in one pass (CsrBuilder::from_column_source): O(n + m).
Graph gnp(Vertex n, double p, std::uint64_t seed);

// G(n,m): exactly m distinct uniform edges (rejection sampling).
Graph gnm(Vertex n, std::int64_t m, std::uint64_t seed);

// Uniform random labeled tree via a random Pruefer sequence.
Graph random_tree(Vertex n, std::uint64_t seed);

// Random recursive tree: vertex i attaches to a uniform vertex < i.
Graph random_recursive_tree(Vertex n, std::uint64_t seed);

// Union of k independent uniform random trees on the same vertex set:
// arboricity <= k (Theorem 11 workload beyond plain trees).
Graph forest_union(Vertex n, int k, std::uint64_t seed);

// Random d-regular-ish multigraph via the configuration model, with loops
// and multi-edges dropped; max degree <= d. Requires n*d even.
Graph random_regular(Vertex n, int d, std::uint64_t seed);

// Random geometric graph: n uniform points in the unit square, edge iff
// distance <= radius. Grid-bucketed: O(n + m) expected.
Graph random_geometric(Vertex n, double radius, std::uint64_t seed);

// Watts-Strogatz small world: ring lattice with k nearest neighbors per
// side, each edge rewired with probability beta.
Graph small_world(Vertex n, int k, double beta, std::uint64_t seed);

}  // namespace gen
}  // namespace ssmis
