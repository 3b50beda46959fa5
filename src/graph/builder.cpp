#include "graph/builder.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "graph/csr_builder.hpp"

namespace ssmis {

GraphBuilder::GraphBuilder(Vertex n) : n_(n) {
  if (n < 0) throw std::invalid_argument("GraphBuilder: negative vertex count");
}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u < 0 || v < 0 || u >= n_ || v >= n_) {
    throw std::invalid_argument("GraphBuilder: edge (" + std::to_string(u) + "," +
                                std::to_string(v) + ") out of range [0," +
                                std::to_string(n_) + ")");
  }
  if (u == v) return;  // drop self-loops
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() const {
  return CsrBuilder::from_source(n_, [this](auto&& emit) {
    for (const auto& [u, v] : edges_) emit(u, v);
  });
}

}  // namespace ssmis
