// Self-stabilization demo: a running MIS survives repeated transient
// faults — memory corruption, joining/leaving nodes' stale state, arbitrary
// adversarial rewrites — with no detection or reset logic, because
// convergence from *every* configuration is the correctness property.
//
//   ./fault_recovery [--n=300] [--p=0.03] [--bursts=5] [--fraction=0.4]
#include <iostream>

#include "core/faults.hpp"
#include "core/init.hpp"
#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const Vertex n = static_cast<Vertex>(args.get_int("n", 300));
  const double p = args.get_double("p", 0.03);
  const int bursts = static_cast<int>(args.get_int("bursts", 5));
  const double fraction = args.get_double("fraction", 0.4);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  const Graph g = gen::gnp(n, p, seed);
  std::cout << "graph: " << g.summary() << "\n";
  std::cout << "injecting " << bursts << " fault bursts, each corrupting ~"
            << fraction * 100 << "% of vertices to random states\n\n";

  const CoinOracle coins(seed + 1);
  TwoStateMIS process(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);

  TextTable table({"burst", "corrupted", "MIS broken after fault?",
                   "recovery rounds", "valid MIS after"});
  RunResult r = process.run(100000, TraceMode::kNone);
  std::cout << "initial convergence: " << r.rounds << " rounds\n";
  for (int burst = 1; burst <= bursts; ++burst) {
    const FaultReport report = inject_faults(process, fraction, burst);
    const bool broken = !is_mis(g, process.output_set());
    r = process.run(100000, TraceMode::kNone);
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(burst));
    table.add_cell(static_cast<std::int64_t>(report.corrupted));
    table.add_cell(broken ? "yes" : "no (lucky)");
    table.add_cell(r.rounds);
    table.add_cell(is_mis(g, process.output_set()) ? "yes" : "NO");
    if (!r.stabilized) {
      std::cerr << "did not re-stabilize within horizon\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nNo reset, no fault detector, no leader: recovery is inherent.\n";
  return 0;
}
