#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

#include "graph/builder.hpp"

namespace ssmis {

struct Graph::Storage {
  std::vector<std::int64_t> offsets;
  std::vector<Vertex> adj;
};

Graph::Graph() = default;

Graph::Graph(Vertex n, std::vector<std::int64_t> offsets, std::vector<Vertex> adj)
    : n_(n) {
  auto storage = std::make_shared<Storage>();
  storage->offsets = std::move(offsets);
  storage->adj = std::move(adj);
  offsets_ = storage->offsets.data();
  adj_ = storage->adj.data();
  adj_size_ = storage->adj.size();
  backing_ = std::move(storage);
}

Graph Graph::from_external_csr(Vertex n, const std::int64_t* offsets,
                               const Vertex* adj, std::size_t adj_len,
                               std::shared_ptr<const void> backing) {
  Graph g;
  g.n_ = n;
  g.offsets_ = offsets;
  g.adj_ = adj;
  g.adj_size_ = adj_len;
  g.mapped_ = true;
  g.backing_ = std::move(backing);
  return g;
}

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

Graph Graph::from_edges(Vertex n, std::initializer_list<Edge> edges) {
  return from_edges(n, std::span<const Edge>(edges.begin(), edges.size()));
}

Vertex Graph::max_degree() const {
  Vertex best = 0;
  for (Vertex u = 0; u < n_; ++u) best = std::max(best, degree(u));
  return best;
}

std::vector<Vertex> Graph::degrees() const {
  std::vector<Vertex> out(static_cast<std::size_t>(n_));
  for (Vertex u = 0; u < n_; ++u) out[static_cast<std::size_t>(u)] = degree(u);
  return out;
}

double Graph::average_degree() const {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n_);
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_ || u == v) return false;
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex u = 0; u < n_; ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

bool Graph::operator==(const Graph& other) const {
  if (n_ != other.n_ || adj_size_ != other.adj_size_) return false;
  if (offsets_ == other.offsets_ && adj_ == other.adj_) return true;
  return std::equal(offsets_, offsets_ + n_ + 1, other.offsets_) &&
         std::equal(adj_, adj_ + adj_size_, other.adj_);
}

std::string Graph::storage_mode() const { return mapped_ ? "mmap" : "owned"; }

std::string Graph::summary() const {
  std::ostringstream oss;
  oss << "Graph(n=" << n_ << ", m=" << num_edges() << ", maxdeg=" << max_degree()
      << ")";
  return oss.str();
}

}  // namespace ssmis
