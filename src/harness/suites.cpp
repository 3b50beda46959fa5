#include "harness/suites.hpp"

#include "graph/generators.hpp"

namespace ssmis {

std::vector<NamedGraph> small_suite(std::uint64_t seed) {
  std::vector<NamedGraph> suite;
  suite.push_back({"K32", gen::complete(32)});
  suite.push_back({"path256", gen::path(256)});
  suite.push_back({"cycle255", gen::cycle(255)});
  suite.push_back({"star128", gen::star(128)});
  suite.push_back({"grid16x16", gen::grid(16, 16)});
  suite.push_back({"torus8x8", gen::torus(8, 8)});
  suite.push_back({"hypercube7", gen::hypercube(7)});
  suite.push_back({"tree256", gen::random_tree(256, seed)});
  suite.push_back({"binary255", gen::binary_tree(255)});
  suite.push_back({"caterpillar", gen::caterpillar(16, 8)});
  suite.push_back({"cliques8x16", gen::disjoint_cliques(8, 16)});
  suite.push_back({"gnp256-sparse", gen::gnp(256, 0.02, seed + 1)});
  suite.push_back({"gnp256-dense", gen::gnp(256, 0.3, seed + 2)});
  suite.push_back({"regular6", gen::random_regular(256, 6, seed + 3)});
  suite.push_back({"bipartite16x16", gen::complete_bipartite(16, 16)});
  suite.push_back({"barbell16", gen::barbell(16)});
  suite.push_back({"forest2", gen::forest_union(200, 2, seed + 4)});
  suite.push_back({"geometric", gen::random_geometric(256, 0.12, seed + 5)});
  suite.push_back({"smallworld", gen::small_world(256, 3, 0.1, seed + 6)});
  return suite;
}

std::vector<NamedGraph> corner_suite() {
  std::vector<NamedGraph> suite;
  suite.push_back({"empty", Graph::from_edges(0, {})});
  suite.push_back({"singleton", Graph::from_edges(1, {})});
  suite.push_back({"isolated5", Graph::from_edges(5, {})});
  suite.push_back({"K2", gen::complete(2)});
  suite.push_back({"K3", gen::complete(3)});
  suite.push_back({"two-components", Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}})});
  suite.push_back({"star-with-isolated", Graph::from_edges(6, {{0, 1}, {0, 2}, {0, 3}})});
  return suite;
}

}  // namespace ssmis
