// Extension experiment X1 (not a paper claim): quality of the MIS the
// processes converge to.
//
// The paper proves nothing about MIS *size* — any MIS is an acceptable
// output — but a library user will ask. On small graphs we compare against
// the exact extremes (maximum independent set and minimum maximal
// independent set, both branch-and-bound); on larger graphs against the
// greedy reference. Expectation: the randomized processes land strictly
// between the extremes, usually close to greedy.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "stats/summary.hpp"

using namespace ssmis;

namespace {

Summary mis_sizes(const Graph& g, const std::string& protocol, int trials,
                  std::uint64_t seed,
                  const bench::ExpContext& ctx) {
  const auto outcomes =
      ctx.trial_batch(trials).map<double>([&](int trial) -> double {
        MeasureConfig config;
        config.protocol = protocol;
        config.trials = 1;
        config.seed = seed + static_cast<std::uint64_t>(trial);
        config.max_rounds = 2000000;
        // Re-run through the harness trace API to recover the final black count.
        const RunResult r = traced_run(g, config);
        if (r.stabilized && !r.trace.empty())
          return static_cast<double>(r.trace.back().black);
        return -1.0;
      });
  std::vector<double> sizes;
  for (double v : outcomes)
    if (v >= 0.0) sizes.push_back(v);
  return summarize(sizes);
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "X1 (extension): MIS size quality",
      "no size claim in the paper; processes should land between the exact "
      "minimum-maximal and maximum independent set sizes",
      20,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kFixed);

  print_banner(std::cout, "small graphs: exact extremes vs process output");
  {
    struct Cell { std::string name; Graph graph; };
    std::vector<Cell> cells;
    cells.push_back({"gnp24 p=0.2", ctx.cell_graph([&] { return gen::gnp(24, 0.2, ctx.seed); })});
    cells.push_back({"gnp28 p=0.3", ctx.cell_graph([&] { return gen::gnp(28, 0.3, ctx.seed + 1); })});
    cells.push_back({"grid 5x5", ctx.cell_graph([&] { return gen::grid(5, 5); })});
    cells.push_back({"cycle 18", ctx.cell_graph([&] { return gen::cycle(18); })});
    cells.push_back({"tree 26", ctx.cell_graph([&] { return gen::random_tree(26, ctx.seed + 2); })});
    cells.push_back({"K_12", ctx.cell_graph([&] { return gen::complete(12); })});
    TextTable table({"graph", "min maximal", "max independent", "2-state mean",
                     "3-state mean", "greedy"});
    for (auto& cell : cells) {
      const auto i_min = independent_domination_number(cell.graph);
      const auto alpha = exact_max_independent_set(cell.graph).size();
      const Summary s2 = mis_sizes(cell.graph, "2state", ctx.trials,
                                   ctx.seed + 11, ctx);
      const Summary s3 = mis_sizes(cell.graph, "3state", ctx.trials,
                                   ctx.seed + 13, ctx);
      table.begin_row();
      table.add_cell(cell.name);
      table.add_cell(static_cast<std::int64_t>(i_min));
      table.add_cell(static_cast<std::int64_t>(alpha));
      table.add_cell(s2.mean);
      table.add_cell(s3.mean);
      table.add_cell(static_cast<std::int64_t>(greedy_mis(cell.graph).size()));
    }
    table.print(std::cout);
  }

  print_banner(std::cout, "larger graphs: process vs greedy reference");
  {
    struct Cell { std::string name; Graph graph; };
    std::vector<Cell> cells;
    cells.push_back({"gnp512 p=0.01", ctx.cell_graph([&] { return gen::gnp(512, 0.01, ctx.seed + 3); })});
    cells.push_back({"gnp512 p=0.1", ctx.cell_graph([&] { return gen::gnp(512, 0.1, ctx.seed + 4); })});
    cells.push_back({"tree2048", ctx.cell_graph([&] { return gen::random_tree(2048, ctx.seed + 5); })});
    cells.push_back({"torus 24x24", ctx.cell_graph([&] { return gen::torus(24, 24); })});
    TextTable table({"graph", "2-state mean", "2-state min..max", "greedy",
                     "mean/greedy"});
    for (auto& cell : cells) {
      const Summary s2 = mis_sizes(cell.graph, "2state", ctx.trials,
                                   ctx.seed + 17, ctx);
      const auto greedy = static_cast<double>(greedy_mis(cell.graph).size());
      table.begin_row();
      table.add_cell(cell.name);
      table.add_cell(s2.mean);
      table.add_cell(format_double(s2.min, 0) + ".." + format_double(s2.max, 0));
      table.add_cell(greedy, 0);
      table.add_cell(s2.mean / greedy);
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "at seed 1, process MIS sizes lie between the exact extremes on the "
      "small graphs (all three are 1 on K_12); against greedy, gnp512 "
      "p=0.01 and tree2048 read 1.01-1.03x, gnp512 p=0.1 reads 1.15x (larger "
      "sets than greedy on the denser graph), and torus 24x24 reads 0.73x, "
      "where greedy's ordered scan packs the lattice more densely");
  return 0;
}
