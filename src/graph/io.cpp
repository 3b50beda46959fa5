#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"

namespace ssmis {
namespace io {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) os << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  Vertex n = -1;
  std::int64_t m = -1;
  std::int64_t seen = 0;
  GraphBuilder builder(0);
  bool have_header = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!have_header) {
      if (!(ls >> n >> m) || n < 0 || m < 0)
        throw std::runtime_error("read_edge_list: malformed header");
      builder = GraphBuilder(n);
      have_header = true;
      continue;
    }
    Vertex u, v;
    if (!(ls >> u >> v)) throw std::runtime_error("read_edge_list: malformed edge line");
    builder.add_edge(u, v);
    ++seen;
  }
  if (!have_header) throw std::runtime_error("read_edge_list: missing header");
  if (seen != m) throw std::runtime_error("read_edge_list: edge count mismatch");
  return builder.build();
}

void write_dot(std::ostream& os, const Graph& g, const std::vector<Vertex>& highlight) {
  std::vector<char> mark(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex u : highlight) {
    if (u >= 0 && u < g.num_vertices()) mark[static_cast<std::size_t>(u)] = 1;
  }
  os << "graph G {\n  node [shape=circle];\n";
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    os << "  " << u;
    if (mark[static_cast<std::size_t>(u)])
      os << " [style=filled, fillcolor=black, fontcolor=white]";
    os << ";\n";
  }
  for (const auto& [u, v] : g.edge_list()) os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
}

std::string to_edge_list_string(const Graph& g) {
  std::ostringstream oss;
  write_edge_list(oss, g);
  return oss.str();
}

Graph from_edge_list_string(const std::string& text) {
  std::istringstream iss(text);
  return read_edge_list(iss);
}

}  // namespace io
}  // namespace ssmis
