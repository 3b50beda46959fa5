// Experiment E12: baseline comparison across the algorithm zoo.
//
//  * 2-state / 3-state / 3-color processes (self-stabilizing, constant
//    state, 1-bit communication): rounds from clean AND adversarial starts.
//  * Luby's algorithm: O(log n) rounds from a clean start, but NOT
//    self-stabilizing — from adversarial decision flags it reports a
//    non-MIS forever.
//  * Sequential central-daemon algorithm [Shukla et al. 95]: a DaemonMIS
//    with the 2-state rule's flip source under a round-robin daemon;
//    <= 2n moves under any central daemon (but inherently sequential:
//    Theta(n) time).
//  * Deterministic synchronous rule: the flip source run by TwoStateMIS;
//    livelocks (the reason for coins).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/daemon.hpp"
#include "core/luby.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/suites.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E12: baselines (Luby, sequential daemon, deterministic)",
      "the paper's processes are the only ones that are simultaneously "
      "self-stabilizing, constant-state, and round-efficient",
      10,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kFixed);

  const auto suite = ctx.suite_or([&] { return small_suite(ctx.seed); });

  print_banner(std::cout, "rounds to MIS, clean start (mean over trials)");
  {
    TextTable table({"graph", "n", "2-state", "3-state", "3-color", "luby",
                     "seq moves (<=2n)"});
    for (const auto& cell : suite) {
      table.begin_row();
      table.add_cell(cell.name);
      table.add_cell(static_cast<std::int64_t>(cell.graph.num_vertices()));
      for (const char* protocol : {"2state", "3state", "3color"}) {
        MeasureConfig config;
        ctx.apply_parallel(config);
        config.protocol = protocol;
        config.init = InitPattern::kAllWhite;
        config.trials = ctx.trials;
        config.seed = ctx.seed;
        config.max_rounds = 2000000;
        const Measurements m = measure_stabilization(cell.graph, config);
        table.add_cell(m.summary.mean);
      }
      // Luby mean rounds.
      double luby_total = 0;
      for (int trial = 0; trial < ctx.trials; ++trial) {
        LubyMIS luby(cell.graph, CoinOracle(ctx.seed + static_cast<std::uint64_t>(trial)));
        luby_total += static_cast<double>(luby.run(100000));
      }
      table.add_cell(luby_total / ctx.trials);
      // Sequential moves under round-robin: one daemon step is one move.
      DaemonMIS seq(cell.graph,
                    std::vector<Color2>(
                        static_cast<std::size_t>(cell.graph.num_vertices()),
                        Color2::kWhite),
                    std::make_unique<RoundRobinDaemon>(), TwoStateRule::flip());
      table.add_cell(
          run_until_stabilized(seq, 4 * cell.graph.num_vertices() + 8).rounds);
    }
    table.print(std::cout);
  }

  print_banner(std::cout, "adversarial start (all-black): self-stabilization");
  {
    TextTable table({"graph", "2-state ok", "3-state ok", "3-color ok", "luby ok"});
    for (const auto& cell : suite) {
      if (cell.graph.num_vertices() == 0) continue;
      table.begin_row();
      table.add_cell(cell.name);
      for (const char* protocol : {"2state", "3state", "3color"}) {
        MeasureConfig config;
        ctx.apply_parallel(config);
        config.protocol = protocol;
        config.init = InitPattern::kAllBlack;
        config.trials = 3;
        config.seed = ctx.seed + 5;
        config.max_rounds = 2000000;
        const Measurements m = measure_stabilization(cell.graph, config);
        table.add_cell(m.timeouts == 0 ? "yes" : "NO");
      }
      // Luby from adversarial flags: mark everything kOut -> no MIS, done.
      std::vector<LubyStatus> bad(static_cast<std::size_t>(cell.graph.num_vertices()),
                                  LubyStatus::kOut);
      LubyMIS luby(cell.graph, bad, CoinOracle(ctx.seed));
      luby.run(1000);
      table.add_cell(is_mis(cell.graph, luby.mis_set()) ? "yes (unexpected)" : "NO (stuck)");
    }
    table.print(std::cout);
  }

  print_banner(std::cout, "deterministic synchronous rule: livelock demonstration");
  {
    TextTable table({"graph", "start", "rounds simulated", "still enabled?"});
    struct Demo { std::string graph_name; Graph graph; };
    // Illustrative micro-demos: intentionally NOT overridden by --graph-file
    // (1000 dense deterministic rounds on a 10^7-vertex graph is not a demo).
    for (auto& demo : {Demo{"K_2", gen::complete(2)}, Demo{"C_6", gen::cycle(6)},
                       Demo{"K_8", gen::complete(8)}}) {
      TwoStateMIS p(demo.graph,
                    std::vector<Color2>(
                        static_cast<std::size_t>(demo.graph.num_vertices()),
                        Color2::kBlack),
                    TwoStateRule::flip());
      for (int i = 0; i < 1000; ++i) p.step();
      table.begin_row();
      table.add_cell(demo.graph_name);
      table.add_cell("all-black");
      table.add_cell(static_cast<std::int64_t>(1000));
      table.add_cell(p.stabilized() ? "no (stabilized)" : "YES (livelock)");
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "paper's processes recover from adversarial starts; Luby does not; "
      "the deterministic parallel rule livelocks — randomization is needed");
  return 0;
}
