// Mutable edge accumulator producing immutable CSR Graphs.
//
// Generators add edges freely (duplicates and both orientations are fine);
// build() replays them through CsrBuilder::from_source
// (graph/csr_builder.hpp), the one sort/dedup/validate path. Peak memory is
// the buffered edge list (8 bytes per recorded edge) plus the final CSR —
// fine for the point-set generators and tests that use it; large-graph
// generators emit through CsrBuilder directly, with no buffered list.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ssmis {

class GraphBuilder {
 public:
  // Throws std::invalid_argument if n < 0.
  explicit GraphBuilder(Vertex n);

  Vertex num_vertices() const { return n_; }

  // Records an undirected edge {u, v}. Self-loops are silently dropped
  // (the MIS processes are defined on simple graphs). Throws
  // std::invalid_argument on out-of-range endpoints.
  void add_edge(Vertex u, Vertex v);

  std::size_t num_recorded_edges() const { return edges_.size(); }

  // The graph of the edges recorded so far; duplicate edges collapse to
  // one. The builder is left as it is, so callers may keep adding edges.
  Graph build() const;

 private:
  Vertex n_;
  std::vector<Edge> edges_;  // stored with u < v
};

}  // namespace ssmis
