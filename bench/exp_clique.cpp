// Experiment E1 + E3 (Theorem 8, Remark 10): the 2-state MIS process on the
// complete graph K_n stabilizes in O(log n) rounds in expectation and
// O(log^2 n) w.h.p., with tail P[T >= k log n] = 2^{-Theta(k)}; the 3-state
// process is O(log n) both in expectation and w.h.p.
//
// Tables:
//   1. per-n summary for the 2-state process (mean/median/p95, ratios to
//      log n and log^2 n): mean/log n should stay ~constant, p95/log n may
//      drift (the w.h.p. bound is log^2), p95/log^2 n must not grow.
//   2. same sweep for the 3-state process: both mean/log n AND p95/log n
//      flat (Remark 10's stronger claim).
//   3. empirical tail of T/log2(n) on one clique size: successive k-rows
//      should decay geometrically (2^{-Theta(k)}).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "stats/tail.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E1/E3 (Theorem 8, Remark 10): cliques",
      "2-state on K_n: E[T] = O(log n), T = O(log^2 n) whp, tail 2^-Theta(k); "
      "3-state on K_n: O(log n) whp",
      30, bench::GraphFilePolicy::kLoad, "2state",
      bench::ProtocolPolicy::kSelectable, {"scale"});

  const std::vector<Vertex> sizes = {64, 128, 256, 512, 1024};
  for (const std::string& protocol : ctx.protocols_or({"2state", "3state"})) {
    print_banner(std::cout, protocol + " process on K_n");
    TextTable table({"n", "mean", "median", "p95", "max", "mean/log2(n)",
                     "p95/log2(n)", "p95/log2^2(n)"});
    for (Vertex n : sizes) {
      const Graph g = ctx.cell_graph([&] { return gen::complete(ctx.scaled(n)); });
      MeasureConfig config;
      ctx.apply(config);
      config.protocol = protocol;
      config.trials = ctx.trials;
      config.seed = ctx.seed + static_cast<std::uint64_t>(n);
      config.max_rounds = 2000000;
      const Measurements m = measure_stabilization(g, config);
      const double ln = bench::log2n(g.num_vertices());
      table.begin_row();
      table.add_cell(static_cast<std::int64_t>(g.num_vertices()));
      table.add_cell(m.summary.mean);
      table.add_cell(m.summary.median);
      table.add_cell(m.summary.p95);
      table.add_cell(m.summary.max);
      table.add_cell(m.summary.mean / ln);
      table.add_cell(m.summary.p95 / ln);
      table.add_cell(m.summary.p95 / (ln * ln));
      if (m.timeouts > 0) table.add_cell("timeouts=" + std::to_string(m.timeouts));
    }
    table.print(std::cout);
  }

  // Tail table (Theorem 8's 2^{-Theta(k)} lower-order statement).
  print_banner(std::cout, "tail of T / log2(n) on K_256, " + ctx.protocol);
  {
    const Graph g = ctx.cell_graph([&] { return gen::complete(256); });
    MeasureConfig config;
    ctx.apply(config);
    config.trials = std::max(200, ctx.trials * 4);
    config.seed = ctx.seed + 999;
    config.max_rounds = 2000000;
    const Measurements m = measure_stabilization(g, config);
    const double ln = bench::log2n(256);
    std::vector<double> normalized;
    for (double r : m.stabilization_rounds) normalized.push_back(r / ln);
    std::vector<double> thresholds;
    for (int k = 1; k <= 6; ++k) thresholds.push_back(static_cast<double>(k));
    const auto tail = empirical_tail(normalized, thresholds);
    TextTable table({"k", "P[T >= k*log2(n)]", "count"});
    for (const auto& point : tail) {
      table.begin_row();
      table.add_cell(point.threshold, 0);
      table.add_cell(point.probability, 4);
      table.add_cell(static_cast<std::int64_t>(point.exceed_count));
    }
    table.print(std::cout);
    std::cout << "mean successive tail decay: "
              << format_double(mean_tail_decay(tail), 3)
              << " (geometric decay => bounded away from 1)\n";
  }

  bench::finish_experiment(
      "expect mean/log2(n) roughly flat for both processes; p95/log2^2(n) "
      "bounded for 2-state; tail decays geometrically");
  return 0;
}
