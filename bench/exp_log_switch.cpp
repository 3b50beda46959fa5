// Experiment E10 (Lemma 27): the randomized logarithmic switch (Definition
// 26, zeta = 2^-7, a = 4/zeta = 512, b = 3) satisfies:
//   S1: every off-run <= a ln n            (any graph)
//   S2: every off-run >= (a/6) ln n        (diam <= 2, after warm-up)
//   S3: every on-run <= b = 3              (diam <= 2, after O(1) rounds)
// On graphs of large diameter only S1 is claimed — the path row demonstrates
// S3 genuinely failing there. Each row reports which claimed bounds it meets
// and by how much; the verdict tallies them. Lemma 27 holds w.h.p., so a
// miss is a measurement, not a failure (exit 0 either way).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/log_switch.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

using namespace ssmis;

namespace {

// Tally of one bound over the rows that claim it.
struct BoundTally {
  int rows = 0;
  int met = 0;
  double worst_slack = 0;  // smallest slack seen (< 0: a miss)

  // `slack` is how far the measurement sits inside the bound (< 0 means
  // outside); returns the row's cell text for this bound.
  std::string check(const char* name, double slack) {
    worst_slack = rows == 0 ? slack : std::min(worst_slack, slack);
    ++rows;
    if (slack >= 0) ++met;
    return std::string(name) + (slack >= 0 ? " met by " : " MISSED by ") +
           format_double(std::abs(slack), 1);
  }

  std::string summary(const char* name) const {
    std::string out = std::string(name) + " met on " + std::to_string(met) +
                      "/" + std::to_string(rows);
    if (met < rows)
      out += " (worst miss " + format_double(-worst_slack, 1) + ")";
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E10 (Lemma 27): logarithmic switch run lengths",
      "S1 everywhere; S2 and S3 on diameter <= 2 graphs", 1,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kFixed);

  struct Cell {
    std::string name;
    Graph graph;
  };
  std::vector<Cell> cells;
  cells.push_back({"K_64", ctx.cell_graph([&] { return gen::complete(64); })});
  cells.push_back({"star_64", ctx.cell_graph([&] { return gen::star(64); })});
  cells.push_back({"gnp_128_dense", ctx.cell_graph([&] { return gen::gnp(128, 0.5, ctx.seed); })});
  cells.push_back({"gnp_256_dense", ctx.cell_graph([&] { return gen::gnp(256, 0.4, ctx.seed + 1); })});
  cells.push_back({"path_256", ctx.cell_graph([&] { return gen::path(256); })});
  cells.push_back({"cycle_128", ctx.cell_graph([&] { return gen::cycle(128); })});

  print_banner(std::cout, "switch run-length statistics (20000 rounds, warm-up 50)");
  TextTable table({"graph", "n", "diam<=2", "max-off", "S1 bound a*ln(n)",
                   "min-off", "S2 bound (a/6)ln(n)", "max-on", "S3 bound b=3",
                   "claimed bounds"});
  // Cells are independent (each owns its switch), so they batch across the
  // pool like trials; rows are emitted in cell order regardless of threads.
  struct CellRow {
    SwitchRunStats stats;
    bool diam2 = false;
    double a = 0;
  };
  const auto rows = ctx.trial_batch(static_cast<int>(cells.size()))
                        .map<CellRow>([&](int i) {
                          auto& cell = cells[static_cast<std::size_t>(i)];
                          RandomizedLogSwitch sw(cell.graph, CoinOracle(ctx.seed + 17));
                          CellRow row;
                          row.stats = measure_switch_runs(
                              sw, cell.graph.num_vertices(), 20000, 50);
                          row.diam2 = has_diameter_at_most_2(cell.graph);
                          row.a = sw.parameter_a();
                          return row;
                        });
  BoundTally s1;
  BoundTally s2;
  BoundTally s3;
  int unclaimed_rows = 0;
  int unclaimed_s3_fails = 0;  // max-on > 3 where S3 is not claimed
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto& cell = cells[i];
    const Vertex n = cell.graph.num_vertices();
    const auto& stats = rows[i].stats;
    const bool diam2 = rows[i].diam2;
    const double ln_n = std::log(static_cast<double>(n));
    const double s1_bound = rows[i].a * ln_n;
    const double s2_bound = rows[i].a / 6.0 * ln_n;
    const auto max_off = static_cast<double>(stats.max_off_run);
    const auto min_off = static_cast<double>(stats.min_completed_off_run);
    const auto max_on = static_cast<double>(stats.max_on_run);
    std::string claims = s1.check("S1", s1_bound - max_off);
    if (diam2) {
      claims += ", " + s2.check("S2", min_off - s2_bound);
      claims += ", " + s3.check("S3", 3.0 - max_on);
    } else {
      ++unclaimed_rows;
      if (stats.max_on_run > 3) ++unclaimed_s3_fails;
      claims += "; S2/S3 not claimed";
    }
    table.begin_row();
    table.add_cell(cell.name);
    table.add_cell(static_cast<std::int64_t>(n));
    table.add_cell(diam2 ? "yes" : "no");
    table.add_cell(stats.max_off_run);
    table.add_cell(s1_bound, 0);
    table.add_cell(stats.min_completed_off_run);
    table.add_cell(diam2 ? format_double(s2_bound, 0) : "n/a");
    table.add_cell(stats.max_on_run);
    table.add_cell(diam2 ? "3" : "n/a");
    table.add_cell(claims);
  }
  table.print(std::cout);

  // Effect of zeta: larger zeta => shorter off-runs (a = 4/zeta).
  print_banner(std::cout, "zeta sweep on K_64 (a = 4/zeta scales the off-run length)");
  TextTable ztable({"zeta", "a=4/zeta", "max-off", "min-off", "max-on"});
  for (unsigned den : {5u, 6u, 7u, 8u}) {
    const Graph g = ctx.cell_graph([&] { return gen::complete(64); });
    RandomizedLogSwitch sw(
        PhaseClock::with_random_levels(g, 3, CoinOracle(ctx.seed + 23), 1, den));
    const auto stats = measure_switch_runs(sw, 64, 20000, 50);
    ztable.begin_row();
    ztable.add_cell(1.0 / std::pow(2.0, den), 5);
    ztable.add_cell(sw.parameter_a(), 0);
    ztable.add_cell(stats.max_off_run);
    ztable.add_cell(stats.min_completed_off_run);
    ztable.add_cell(stats.max_on_run);
  }
  ztable.print(std::cout);

  std::string verdict = s1.summary("S1") + " rows; diam<=2 rows: " +
                        s2.summary("S2") + ", " + s3.summary("S3");
  if (unclaimed_rows > 0) {
    verdict += "; other rows: max-on > 3 on " +
               std::to_string(unclaimed_s3_fails) + "/" +
               std::to_string(unclaimed_rows) + " (S3 not claimed there)";
  }
  bench::finish_experiment(verdict +
                           "; Lemma 27 holds w.h.p., so a miss is measured, "
                           "not failed");
  return 0;
}
