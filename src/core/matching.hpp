// MaximalMatching: a few-state self-stabilizing EDGE-symmetry-breaking
// protocol — the first registry workload that is not a vertex-MIS rule,
// cashing in the ROADMAP's "a new protocol costs one Rule type".
//
// Construction: a maximal matching of G is exactly a maximal independent
// set of the line graph L(G) (vertices of L(G) = edges of G, adjacent iff
// the edges share an endpoint). The protocol therefore IS the paper's
// 2-state process (Definition 4), run with one binary state per EDGE: an
// edge is "claimed" or "free"; a claimed edge sharing an endpoint with
// another claimed edge is in conflict and resamples, a free edge none of
// whose touching edges are claimed is addable and resamples. Stabilization,
// convergence-from-anywhere, and the active-set engine costs are all
// inherited verbatim from the 2-state analysis — zero new scheduling code,
// zero new transition code (it is ProcessEngine<TwoStateRule> over L(G)).
//
// Why edge states are necessary, not a convenience: with per-VERTEX states
// and neighbor counts alone, a matched vertex cannot distinguish its
// partner from an adjacent vertex matched elsewhere — on C_5 no
// count-based vertex encoding of a maximal matching even exists (any
// matched-vertex set of a maximal matching there contains an endpoint with
// two matched neighbors). The communication reading of edge states: one
// claim bit relayed per incident edge, the port-numbering analogue of the
// paper's beeping implementation.
//
// Output: the claimed edges, decoded back to vertex pairs; verified by
// verify.hpp's is_maximal_matching (pairwise-disjoint edges, every graph
// edge blocked by one).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/color.hpp"
#include "core/engine_process.hpp"
#include "core/init.hpp"
#include "core/two_state.hpp"
#include "graph/graph.hpp"
#include "rng/coin_oracle.hpp"

namespace ssmis {

// The line graph L(g): one vertex per edge of g (ids = positions in
// g.edge_list(), i.e. ascending (u, v) order), adjacent iff the edges share
// an endpoint. O(sum_v deg(v)^2) construction.
Graph line_graph(const Graph& g);

// The 2-state process on L(g), an EngineProcess over the line graph whose
// Process surface speaks about g: graph() is g, and the output, validity,
// settled and fault hooks below read the edge states back onto vertices.
// The aggregates count LINE vertices, i.e. EDGES of g: black = claimed
// edges, active = edges that resample next round, stable_black = claims
// with no claimed contender, unstable = edges not yet covered by a stable
// claim. Stabilized ⟺ the claimed edge set is an MIS of L(g) ⟺ a maximal
// matching of g. Engine-side reads (colors(), black(k), force_color(k, c))
// take edge ids.
class MaximalMatching final : public EngineProcess<TwoStateRule> {
 public:
  // Starts the 2-state process on L(g) from `pattern` edge states (drawn
  // over the line graph, so e.g. high-degree-black marks high-conflict
  // edges).
  static MaximalMatching from_pattern(const Graph& g, InitPattern pattern,
                                      const CoinOracle& coins);
  // Explicit initial claims, one Color2 per edge of g (kBlack = claimed).
  // Throws std::invalid_argument on size != g.num_edges().
  MaximalMatching(const Graph& g, std::vector<Color2> init,
                  const CoinOracle& coins);

  // The ORIGINAL graph; the engine runs on the line graph (engine().graph()).
  const Graph& graph() const override { return graph_; }

  // Ascending edge ids incident to u (a view into the internal CSR).
  std::span<const Vertex> incident_edges(Vertex u) const {
    const auto begin = incident_offsets_[static_cast<std::size_t>(u)];
    const auto end = incident_offsets_[static_cast<std::size_t>(u) + 1];
    return {incident_ids_.data() + begin, static_cast<std::size_t>(end - begin)};
  }
  bool matched(Vertex u) const;

  // The matching: claimed edges, ascending by edge id.
  std::vector<Edge> matching() const;
  // Matched vertices, ascending — the uniform output_set encoding.
  std::vector<Vertex> matched_set() const;

  std::vector<Vertex> output_set() const override { return matched_set(); }
  // u is settled once every incident edge is covered by a stable claim
  // (isolated vertices: immediately) — monotone, like N+(I_t) coverage.
  bool settled(Vertex u) const override;
  void verify_output() const override;
  // The states live on edges: force_state(u, bit) sets every incident
  // edge's claim (the node-crash reading); inject_fault corrupts ONE
  // incident edge chosen by the random word.
  void force_state(Vertex u, std::uint8_t raw) override;
  std::uint8_t raw_state(Vertex u) const override { return matched(u) ? 1 : 0; }
  int num_colors() const override { return 2; }
  bool inject_fault(Vertex u, std::uint64_t w) override;

 private:
  MaximalMatching(const Graph& g, std::vector<Edge> edges, const Graph& lg,
                  std::vector<Color2> init, const CoinOracle& coins);

  Graph graph_;
  std::vector<Edge> edges_;                     // edge_id -> (u, v), u < v
  std::vector<std::int64_t> incident_offsets_;  // CSR over incident edge ids
  std::vector<Vertex> incident_ids_;
};

}  // namespace ssmis
