// Side-by-side comparison of all MIS algorithms in the library on a graph
// chosen from the command line — a tour of the public API.
//
//   ./model_compare [--graph=gnp|clique|tree|grid|geometric] [--n=256]
//                   [--p=0.05] [--seed=9]
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>

#include "core/init.hpp"
#include "core/luby.hpp"
#include "core/runner.hpp"
#include "core/sequential.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/narrow.hpp"
#include "support/table.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const std::string kind = args.get_string("graph", "gnp");
  const Vertex n = narrow_cast<Vertex>(
      args.get_int("n", 256, 0, std::numeric_limits<Vertex>::max()));
  const double p = args.get_double("p", 0.05);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      args.get_int("seed", 9, 0, std::numeric_limits<std::int64_t>::max()));

  Graph g;
  if (kind == "gnp") g = gen::gnp(n, p, seed);
  else if (kind == "clique") g = gen::complete(n);
  else if (kind == "tree") g = gen::random_tree(n, seed);
  else if (kind == "grid") g = gen::grid(static_cast<Vertex>(std::max(1.0, std::sqrt(n))),
                                         static_cast<Vertex>(std::max(1.0, std::sqrt(n))));
  else if (kind == "geometric") g = gen::random_geometric(n, p > 0 ? p : 0.08, seed);
  else {
    std::cerr << "unknown --graph " << kind
              << " (use gnp|clique|tree|grid|geometric)\n";
    return 2;
  }
  std::cout << "graph: " << g.summary() << "\n\n";
  const CoinOracle coins(seed + 1);

  TextTable table({"algorithm", "states/node", "self-stabilizing", "rounds/moves",
                   "MIS size", "valid"});

  {
    TwoStateMIS proc(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
    const RunResult r = run_until_stabilized(proc, 1000000);
    table.add_row({"2-state process (beeping)", "2", "yes", std::to_string(r.rounds),
                   std::to_string(proc.black_set().size()),
                   is_mis(g, proc.black_set()) ? "yes" : "NO"});
  }
  {
    ThreeStateMIS proc(g, make_init3(g, InitPattern::kUniformRandom, coins), coins);
    const RunResult r = run_until_stabilized(proc, 1000000);
    table.add_row({"3-state process (stone age)", "3", "yes", std::to_string(r.rounds),
                   std::to_string(proc.black_set().size()),
                   is_mis(g, proc.black_set()) ? "yes" : "NO"});
  }
  {
    auto proc = ThreeColorMIS::with_randomized_switch(
        g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
    const RunResult r = run_until_stabilized(proc, 2000000);
    table.add_row({"3-color process (Thm 3)", "18", "yes", std::to_string(r.rounds),
                   std::to_string(proc.black_set().size()),
                   is_mis(g, proc.black_set()) ? "yes" : "NO"});
  }
  {
    LubyMIS luby(g, coins);
    const auto rounds = luby.run(100000);
    table.add_row({"Luby 1986 (baseline)", "O(log n)", "no", std::to_string(rounds),
                   std::to_string(luby.mis_set().size()),
                   is_mis(g, luby.mis_set()) ? "yes" : "NO"});
  }
  {
    SequentialMIS seq(g, make_init2(g, InitPattern::kUniformRandom, coins));
    RandomScheduler sched(seed + 2);
    const auto result = seq.run(sched, 4 * g.num_vertices() + 8);
    table.add_row({"sequential daemon (SRR95)", "2", "yes",
                   std::to_string(result.total_moves) + " moves",
                   std::to_string(seq.black_set().size()),
                   is_mis(g, seq.black_set()) ? "yes" : "NO"});
  }
  {
    const auto mis = greedy_mis(g);
    table.add_row({"greedy (centralized ref)", "-", "-", "-", std::to_string(mis.size()),
                   is_mis(g, mis) ? "yes" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
