#include "core/matching.hpp"

#include <stdexcept>
#include <utility>

#include "core/process.hpp"
#include "core/verify.hpp"
#include "graph/csr_builder.hpp"
#include "harness/registry.hpp"
#include "support/narrow.hpp"

namespace ssmis {

namespace {

// CSR of incident edge ids over the vertices of g: ids grouped by endpoint,
// ascending within each row (edges_ is in ascending (u, v) order and each
// id is placed at both endpoints in id order). Shared by line_graph's edge
// stream and MaximalMatching's per-vertex settled/matched queries.
struct IncidentCsr {
  std::vector<std::int64_t> offsets;  // n + 1
  std::vector<Vertex> ids;            // 2m edge ids
};

IncidentCsr incident_edge_csr(const Graph& g, const std::vector<Edge>& edges) {
  IncidentCsr csr;
  csr.offsets.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++csr.offsets[static_cast<std::size_t>(u) + 1];
    ++csr.offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < csr.offsets.size(); ++i)
    csr.offsets[i] += csr.offsets[i - 1];
  csr.ids.resize(edges.size() * 2);
  std::vector<std::int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto place = [&](Vertex endpoint) {
      csr.ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(endpoint)]++)] = static_cast<Vertex>(k);
    };
    place(edges[k].first);
    place(edges[k].second);
  }
  return csr;
}

// Every pair of edges meeting at one vertex is a line edge (a pair can
// meet at only one vertex in a simple graph, so no duplicates), and the
// per-vertex cliques replay deterministically — stream them through the
// two-pass CsrBuilder instead of buffering the sum-deg^2 edge list.
Graph build_line_graph(const Graph& g, const std::vector<Edge>& edges) {
  const IncidentCsr inc = incident_edge_csr(g, edges);
  return CsrBuilder::from_source(
      narrow_cast<Vertex>(edges.size()), [&](auto&& emit) {
        for (Vertex w = 0; w < g.num_vertices(); ++w) {
          const auto begin = inc.offsets[static_cast<std::size_t>(w)];
          const auto end = inc.offsets[static_cast<std::size_t>(w) + 1];
          for (auto i = begin; i < end; ++i) {
            for (auto j = i + 1; j < end; ++j)
              emit(inc.ids[static_cast<std::size_t>(i)],
                   inc.ids[static_cast<std::size_t>(j)]);
          }
        }
      });
}

}  // namespace

Graph line_graph(const Graph& g) { return build_line_graph(g, g.edge_list()); }

MaximalMatching::MaximalMatching(const Graph& g, std::vector<Edge> edges,
                                 std::unique_ptr<Graph> lg,
                                 std::vector<Color2> init,
                                 const CoinOracle& coins)
    : graph_(&g),
      edges_(std::move(edges)),
      line_graph_(std::move(lg)),
      line_process_(*line_graph_, std::move(init), coins) {
  IncidentCsr inc = incident_edge_csr(g, edges_);
  incident_offsets_ = std::move(inc.offsets);
  incident_ids_ = std::move(inc.ids);
}

MaximalMatching MaximalMatching::from_pattern(const Graph& g,
                                              InitPattern pattern,
                                              const CoinOracle& coins) {
  // The factory path (one construction per trial): edge list and line
  // graph are each computed exactly once.
  auto edges = g.edge_list();
  auto lg = std::make_unique<Graph>(build_line_graph(g, edges));
  auto init = make_init2(*lg, pattern, coins);
  return MaximalMatching(g, std::move(edges), std::move(lg), std::move(init),
                         coins);
}

MaximalMatching::MaximalMatching(const Graph& g, std::vector<Color2> init,
                                 const CoinOracle& coins)
    : MaximalMatching(g, g.edge_list(),
                      std::make_unique<Graph>(ssmis::line_graph(g)),
                      std::move(init), coins) {}

bool MaximalMatching::matched(Vertex u) const {
  for (Vertex k : incident_edges(u))
    if (claimed(k)) return true;
  return false;
}

std::vector<Edge> MaximalMatching::matching() const {
  std::vector<Edge> out;
  for (Vertex k : line_process_.black_set())
    out.push_back(edges_[static_cast<std::size_t>(k)]);
  return out;
}

std::vector<Vertex> MaximalMatching::matched_set() const {
  std::vector<Vertex> out;
  for (Vertex u = 0; u < graph_->num_vertices(); ++u)
    if (matched(u)) out.push_back(u);
  return out;
}

bool MaximalMatching::settled(Vertex u) const {
  for (Vertex k : incident_edges(u)) {
    if (line_process_.engine().unstable(k)) return false;
  }
  return true;  // isolated vertices settle at round 0
}

namespace {

// Stepping, snapshots and the run loop come from MisProcessAdapter; the
// output, validity and state hooks are the matching's own.
class MatchingProcess final : public MisProcessAdapter<MaximalMatching> {
 public:
  using MisProcessAdapter::MisProcessAdapter;

  std::vector<Vertex> output_set() const override {
    return process_.matched_set();
  }
  bool settled(Vertex u) const override { return process_.settled(u); }

  void verify_output() const override {
    if (const auto violation =
            find_matching_violation(graph(), process_.matching()))
      throw std::logic_error("process stabilized on an invalid matching: " +
                             *violation);
  }

  // The states live on edges: force_state(u, bit) sets every incident
  // edge's claim (the node-crash reading); inject_fault corrupts ONE
  // incident edge chosen by the random word.
  void force_state(Vertex u, std::uint8_t raw) override {
    if (static_cast<int>(raw) >= 2)
      throw std::invalid_argument("matching: force_state takes 0 (free) or 1");
    for (Vertex k : process_.incident_edges(u))
      process_.force_edge(k, static_cast<Color2>(raw));
  }
  std::uint8_t raw_state(Vertex u) const override {
    return process_.matched(u) ? 1 : 0;
  }
  int num_colors() const override { return 2; }
  bool inject_fault(Vertex u, std::uint64_t w) override {
    const auto incident = process_.incident_edges(u);
    if (incident.empty()) return false;  // isolated: nothing to corrupt
    const Vertex k = incident[static_cast<std::size_t>(
        w % static_cast<std::uint64_t>(incident.size()))];
    process_.force_edge(k,
                        ((w >> 32) & 1) != 0 ? Color2::kBlack : Color2::kWhite);
    return true;
  }
};

const ProtocolRegistrar kMatchingProtocol{
    "matching",
    "self-stabilizing maximal matching = the 2-state process on the line "
    "graph (one claim bit per EDGE; conflicting claims resample, addable "
    "edges resample); output decoded to vertex pairs and verified by "
    "is_maximal_matching",
    {},
    [](const Graph& g, const ProtocolParams& params, std::uint64_t seed) {
      const CoinOracle coins(seed);
      return std::make_unique<MatchingProcess>(
          MaximalMatching::from_pattern(g, params.init, coins));
    }};

}  // namespace

}  // namespace ssmis
