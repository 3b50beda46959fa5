// Experiment X3 (extension): robustness to lossy carrier sensing.
//
// The beeping model assumes perfect carrier sensing; real radios miss
// beeps. With per-receiver loss probability eps, a settled network jitters
// — a covered white vertex that misses its head's beep re-activates and may
// turn black — but self-stabilization keeps pulling it back. We measure
// (a) time to first reach an MIS under loss, and (b) the fraction of rounds
// in an MIS configuration over a long window (availability).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "models/beeping.hpp"
#include "models/mis_automata.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "X3 (extension): lossy carrier sensing",
      "no claim in the paper; self-stabilization should degrade gracefully "
      "with the loss rate",
      3,
      bench::GraphFilePolicy::kLoad, "beeping", bench::ProtocolPolicy::kFixed);

  const Graph g = ctx.cell_graph([&] { return gen::random_geometric(300, 0.09, ctx.seed); });
  std::cout << "radio graph: " << g.summary() << "\n";
  const TwoStateBeepAutomaton automaton;

  print_banner(std::cout, "2-state beeping under receiver loss (window 4000 rounds)");
  TextTable table({"loss eps", "rounds to first MIS", "exact-MIS availability",
                   "mean local consistency", "worst-round consistency"});
  for (double eps : {0.0, 0.005, 0.01, 0.05, 0.1, 0.2}) {
    struct TrialStats {
      double first = 0;
      double avail = 0;
      double consistency = 0;
      double worst = 0;
    };
    const auto outcomes = ctx.trial_batch(ctx.trials).map<TrialStats>([&](int trial) {
      std::vector<std::uint8_t> boot(static_cast<std::size_t>(g.num_vertices()),
                                     TwoStateBeepAutomaton::kBlack);
      BeepingNetwork net(g, automaton, boot,
                         CoinOracle(ctx.seed + 31 + static_cast<std::uint64_t>(trial)));
      net.set_loss_probability(eps);
      const std::int64_t window = 4000;
      std::int64_t first_mis = -1;
      std::int64_t in_mis_rounds = 0;
      double consistency_sum = 0;
      double worst = 1.0;
      for (std::int64_t round = 1; round <= window; ++round) {
        net.step();
        // Local consistency against the TRUE graph state: a vertex is
        // consistent if black with no black neighbor, or non-black with one.
        // The engine counts the violations before loss, in O(1).
        const Vertex violations = net.engine().num_violations();
        const double consistent =
            1.0 - static_cast<double>(violations) / g.num_vertices();
        consistency_sum += consistent;
        worst = std::min(worst, consistent);
        if (violations == 0) {
          if (first_mis < 0) first_mis = round;
          ++in_mis_rounds;
        }
      }
      TrialStats out;
      out.first = static_cast<double>(first_mis < 0 ? window : first_mis);
      out.avail = static_cast<double>(in_mis_rounds) / static_cast<double>(window);
      out.consistency = consistency_sum / static_cast<double>(window);
      out.worst = worst;
      return out;
    });
    double first_total = 0;
    double avail_total = 0;
    double consistency_total = 0;
    double worst_total = 0;
    for (const TrialStats& o : outcomes) {
      first_total += o.first;
      avail_total += o.avail;
      consistency_total += o.consistency;
      worst_total += o.worst;
    }
    table.begin_row();
    table.add_cell(eps, 3);
    table.add_cell(first_total / ctx.trials);
    table.add_cell(avail_total / ctx.trials, 3);
    table.add_cell(consistency_total / ctx.trials, 4);
    table.add_cell(worst_total / ctx.trials, 4);
  }
  table.print(std::cout);

  bench::finish_experiment(
      "exact-MIS availability is brittle by construction (one missed beep "
      "anywhere in the 300-node network re-activates someone), but local "
      "consistency degrades gracefully and stays near 1 for small eps: "
      "losses cause isolated, quickly-repaired perturbations, not collapse");
  return 0;
}
