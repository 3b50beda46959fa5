// Ablation A1 (Section 5.1): the logarithmic switch uses the RandPhase
// mechanism "for D = 3 (not 2!)". We instantiate the generalized phase
// clock for D in {2, 3, 4} and measure (a) the switch properties S2/S3 on
// diameter-2 graphs and (b) the resulting 3-color stabilization time.
//
// With D = 2 the off-levels are only {3, 4} (two of five levels): after a
// synchronized reset the off-run is governed by the same geometric race,
// but the on-window stretches relative to the count-down, weakening the
// rate-limiting the 3-color analysis needs. D = 4 works but wastes states.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "stats/summary.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "A1 (ablation): phase-clock diameter parameter D",
      "the paper picks D = 3; D = 2 weakens the on-run bound, D = 4 adds "
      "states without benefit",
      5,
      bench::GraphFilePolicy::kLoad, "3color", bench::ProtocolPolicy::kFixed);

  print_banner(std::cout, "switch run lengths by D on K_64 (20000 rounds)");
  {
    TextTable table({"D", "states", "on-levels", "max-off", "min-off", "max-on"});
    for (int d : {2, 3, 4}) {
      const Graph g = ctx.cell_graph([&] { return gen::complete(64); });
      RandomizedLogSwitch sw(PhaseClock::with_random_levels(
          g, d, CoinOracle(ctx.seed + static_cast<std::uint64_t>(d))));
      const auto stats = measure_switch_runs(sw, 64, 20000, 50);
      table.begin_row();
      table.add_cell(static_cast<std::int64_t>(d));
      table.add_cell(static_cast<std::int64_t>(sw.num_states()));
      table.add_cell("0.." + std::to_string(d - 1));
      table.add_cell(stats.max_off_run);
      table.add_cell(stats.min_completed_off_run);
      table.add_cell(stats.max_on_run);
    }
    table.print(std::cout);
  }

  print_banner(std::cout, "3-color stabilization by switch D (mean rounds)");
  {
    struct Workload { std::string name; Graph graph; };
    std::vector<Workload> workloads;
    workloads.push_back({"K_128", ctx.cell_graph([&] { return gen::complete(128); })});
    workloads.push_back({"gnp256 p=0.25", ctx.cell_graph([&] { return gen::gnp(256, 0.25, ctx.seed + 3); })});
    workloads.push_back({"gnp512 p=n^-0.25", ctx.cell_graph([&] { return gen::gnp(512, std::pow(512.0, -0.25), ctx.seed + 4); })});
    TextTable table({"graph", "D=2", "D=3 (paper)", "D=4"});
    for (auto& w : workloads) {
      table.begin_row();
      table.add_cell(w.name);
      for (int d : {2, 3, 4}) {
        // The registry's 3color protocol with the generalized phase-clock
        // switch (--proto-switch-d): no bespoke construction code.
        MeasureConfig config;
        ctx.apply_parallel(config);
        config.protocol = "3color";
        config.params.set("switch-d", std::to_string(d));
        config.trials = ctx.trials;
        config.seed = ctx.seed + 100;
        config.max_rounds = 2000000;
        const Measurements m = measure_stabilization(w.graph, config);
        table.add_cell(format_double(m.summary.mean, 1) + " (" +
                       std::to_string(m.summary.count) + "/" +
                       std::to_string(ctx.trials) + " ok)");
      }
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "at seed 1, on-runs last at most D rounds on K_64 (2, 3, 4); "
      "stabilization differs across D: gnp512 spans 673-1511 mean rounds and "
      "D = 4 is fastest there, gnp256 favours D = 3 (655 against 814-835), "
      "K_128 reads 7.6 at every D; D = 3 is the smallest D with the S2/S3 "
      "guarantees the Theorem 32 proof uses");
  return 0;
}
