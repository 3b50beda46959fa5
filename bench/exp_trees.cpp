// Experiment E4 (Theorem 11): on graphs of bounded arboricity — trees,
// forests, and unions of k forests — the 2-state process stabilizes in
// O(log n) rounds w.h.p. The diagnostic is p95 / log2(n) staying flat as n
// grows, for every family.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E4 (Theorem 11): bounded arboricity",
      "2-state is O(log n) whp on any bounded-arboricity graph", 20,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kSelectable,
      {"scale"});

  struct Family {
    std::string name;
    Graph (*make)(Vertex, std::uint64_t);
  };
  const std::vector<Family> families = {
      {"path", [](Vertex n, std::uint64_t) { return gen::path(n); }},
      {"star", [](Vertex n, std::uint64_t) { return gen::star(n); }},
      {"binary-tree", [](Vertex n, std::uint64_t) { return gen::binary_tree(n); }},
      {"uniform-tree", [](Vertex n, std::uint64_t s) { return gen::random_tree(n, s); }},
      {"recursive-tree",
       [](Vertex n, std::uint64_t s) { return gen::random_recursive_tree(n, s); }},
      {"2-forest", [](Vertex n, std::uint64_t s) { return gen::forest_union(n, 2, s); }},
      {"3-forest", [](Vertex n, std::uint64_t s) { return gen::forest_union(n, 3, s); }},
  };

  for (const auto& family : families) {
    print_banner(std::cout, ctx.protocol + " on " + family.name);
    TextTable table({"n", "arboricity<=", "mean", "p95", "p95/log2(n)"});
    for (Vertex n : {256, 1024, 4096, 16384}) {
      const Graph g = ctx.cell_graph([&] {
        return family.make(ctx.scaled(n), ctx.seed + static_cast<std::uint64_t>(n));
      });
      MeasureConfig config;
      config.trials = ctx.trials;
      config.seed = ctx.seed + static_cast<std::uint64_t>(n) * 7;
      config.max_rounds = 1000000;
      ctx.apply(config);
      const Measurements m = measure_stabilization(g, config);
      const double ln = bench::log2n(g.num_vertices());
      table.begin_row();
      table.add_cell(static_cast<std::int64_t>(g.num_vertices()));
      table.add_cell(static_cast<std::int64_t>(arboricity_bounds(g).upper));
      table.add_cell(m.summary.mean);
      table.add_cell(m.summary.p95);
      table.add_cell(m.summary.p95 / ln);
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "p95/log2(n) flat (no growth with n) for every bounded-arboricity "
      "family, confirming the O(log n) whp bound");
  return 0;
}
