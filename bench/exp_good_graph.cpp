// Experiment E9 (Lemma 18): a G(n,p) sample is an (n,p)-good graph
// (Definition 17, properties P1-P6) with probability 1 - O(n^-2).
//
// P5 and P6 are checked exactly; P1-P4 quantify over all subsets, so we run
// the randomized refutation search (adversarially biased candidate subsets)
// and report the fraction of samples with no violation found.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/good_graph.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E9 (Lemma 18): G(n,p) is (n,p)-good whp",
      "random G(n,p) satisfies P1-P6 with probability 1-O(n^-2)", 5,
      bench::GraphFilePolicy::kRefuse, "2state", bench::ProtocolPolicy::kFixed);

  struct Cell {
    Vertex n;
    double p;
  };
  std::vector<Cell> cells;
  for (Vertex n : {128, 256, 512}) {
    cells.push_back({n, 4.0 / n});
    cells.push_back({n, 0.05});
    cells.push_back({n, std::sqrt(std::log(static_cast<double>(n)) / n)});
    cells.push_back({n, 0.3});
  }

  print_banner(std::cout, "good-graph property pass rates over samples");
  TextTable table({"n", "p", "samples", "P1", "P2", "P3", "P4", "P5", "P6", "all"});
  for (const Cell& cell : cells) {
    // Each sample generates its own graph and checks it independently, so
    // samples batch across the pool like trials.
    const auto reports = ctx.trial_batch(ctx.trials).map<GoodGraphReport>([&](int s) {
      const Graph g =
          gen::gnp(cell.n, cell.p, ctx.seed + static_cast<std::uint64_t>(s) * 131);
      return check_good_sampled(g, cell.p, 20, ctx.seed + 7);
    });
    int pass[6] = {0, 0, 0, 0, 0, 0};
    int pass_all = 0;
    for (const auto& report : reports) {
      pass[0] += report.p1;
      pass[1] += report.p2;
      pass[2] += report.p3;
      pass[3] += report.p4;
      pass[4] += report.p5;
      pass[5] += report.p6;
      pass_all += report.all();
    }
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(cell.n));
    table.add_cell(cell.p, 4);
    table.add_cell(static_cast<std::int64_t>(ctx.trials));
    for (int i = 0; i < 6; ++i)
      table.add_cell(std::to_string(pass[i]) + "/" + std::to_string(ctx.trials));
    table.add_cell(std::to_string(pass_all) + "/" + std::to_string(ctx.trials));
  }
  table.print(std::cout);

  // Negative control: a planted dense subgraph must fail P1.
  print_banner(std::cout, "negative control: planted 60-clique in sparse noise");
  {
    GraphBuilder b(400);
    for (Vertex i = 0; i < 60; ++i)
      for (Vertex j = i + 1; j < 60; ++j) b.add_edge(i, j);
    const Graph planted = b.build();
    const auto report = check_good_sampled(planted, 0.001, 40, ctx.seed);
    std::cout << "planted clique, p=0.001: " << report.to_string() << "\n";
    std::cout << "(P1 must be 0: the refutation search finds the dense subgraph)\n";
  }

  bench::finish_experiment(
      "all G(n,p) samples pass every property; the planted control fails P1");
  return 0;
}
