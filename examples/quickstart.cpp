// Quickstart: build a graph, run the 2-state MIS process from arbitrary
// states, verify the result.
//
//   ./quickstart [--n=64] [--p=0.1] [--seed=7]
#include <iostream>
#include <limits>

#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/narrow.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const Vertex n = narrow_cast<Vertex>(
      args.get_int("n", 64, 0, std::numeric_limits<Vertex>::max()));
  const double p = args.get_double("p", 0.1);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      args.get_int("seed", 7, 0, std::numeric_limits<std::int64_t>::max()));

  // 1. A random graph (any ssmis::Graph works — see graph/generators.hpp).
  const Graph g = gen::gnp(n, p, seed);
  std::cout << "graph: " << g.summary() << "\n";

  // 2. The 2-state MIS process. Initial states are ARBITRARY — that is the
  //    point of self-stabilization; here we start from uniformly random
  //    colors drawn from the same deterministic coin oracle.
  const CoinOracle coins(seed);
  TwoStateMIS process(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);

  // 3. Run synchronous rounds until the black set is an MIS.
  const RunResult result = run_until_stabilized(process, /*max_rounds=*/100000,
                                                TraceMode::kPerRound);
  std::cout << "stabilized: " << (result.stabilized ? "yes" : "NO") << " after "
            << result.rounds << " rounds\n";

  // 4. Inspect the result.
  const auto mis = process.black_set();
  std::cout << "MIS size: " << mis.size() << " (greedy reference: "
            << greedy_mis(g).size() << ")\n";
  std::cout << "valid MIS: " << (is_mis(g, mis) ? "yes" : "NO") << "\n";

  // 5. The per-round trace shows the paper's progress measure |V_t|
  //    (vertices not yet stable) shrinking to zero.
  std::cout << "\nround  black  active  stable  unstable\n";
  for (const RoundStats& s : result.trace) {
    if (s.round % 5 == 0 || s.round == result.rounds) {
      std::cout << s.round << "\t" << s.black << "\t" << s.active << "\t"
                << s.stable_black << "\t" << s.unstable << "\n";
    }
  }
  return result.stabilized ? 0 : 1;
}
