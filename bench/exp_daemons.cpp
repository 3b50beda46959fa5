// Experiment X4 (extension, Section 1's scheduler discussion): the 2-state
// rule under the spectrum of activation daemons, from fully sequential
// (central) to fully parallel (synchronous).
//
// Steps are not comparable across daemons (a central step activates one
// vertex, a synchronous step up to n), so we report both raw steps and
// total vertex-activations. The paper-relevant observation: randomized
// transitions stabilize under EVERY daemon; parallelism buys wall-clock
// rounds at the cost of extra activations (coordinated re-collisions).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/daemon.hpp"
#include "core/init.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "stats/summary.hpp"

using namespace ssmis;

namespace {

struct DaemonResult {
  double mean_steps = 0;
  double mean_activations = 0;
  int failures = 0;
};

struct TrialOutcome {
  std::int64_t steps = 0;
  std::int64_t activations = 0;
  bool ok = false;
};

template <typename MakeDaemon>
DaemonResult run_daemon(const Graph& g, MakeDaemon make, int trials,
                        std::uint64_t seed, const bench::ExpContext& ctx) {
  // `make` constructs a fresh daemon per trial, so every trial owns its
  // whole process state and trials batch safely across the pool.
  const auto outcomes =
      ctx.trial_batch(trials).map<TrialOutcome>([&](int trial) {
        const CoinOracle coins(seed + static_cast<std::uint64_t>(trial));
        DaemonMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins),
                    make(trial), coins);
        TrialOutcome out;
        const std::int64_t max_steps = 5000000;
        while (!p.stabilized() && out.steps < max_steps) {
          p.step();
          out.activations += p.last_activations();
          ++out.steps;
        }
        out.ok = p.stabilized() && is_mis(g, p.black_set());
        return out;
      });
  DaemonResult out;
  for (const TrialOutcome& o : outcomes) {
    if (!o.ok) {
      ++out.failures;
      continue;
    }
    out.mean_steps += static_cast<double>(o.steps);
    out.mean_activations += static_cast<double>(o.activations);
  }
  const int ok = trials - out.failures;
  if (ok > 0) {
    out.mean_steps /= ok;
    out.mean_activations /= ok;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "X4 (extension): activation-daemon spectrum",
      "randomized transitions stabilize under every daemon (Section 1's "
      "adversarial-scheduler observation)",
      10,
      bench::GraphFilePolicy::kLoad, "daemon", bench::ProtocolPolicy::kFixed);

  struct Workload { std::string name; Graph graph; };
  std::vector<Workload> workloads;
  workloads.push_back({"K_64", ctx.cell_graph([&] { return gen::complete(64); })});
  workloads.push_back({"gnp256 p=0.05", ctx.cell_graph([&] { return gen::gnp(256, 0.05, ctx.seed); })});
  workloads.push_back({"tree512", ctx.cell_graph([&] { return gen::random_tree(512, ctx.seed + 1); })});

  for (auto& w : workloads) {
    print_banner(std::cout, "daemon spectrum on " + w.name);
    TextTable table({"daemon", "mean steps", "mean activations", "failures"});
    struct Row {
      std::string name;
      DaemonResult result;
    };
    std::vector<Row> rows;
    rows.push_back({"central (1 vertex/step)",
                    run_daemon(w.graph,
                               [&](int t) {
                                 return std::make_unique<CentralDaemon>(
                                     ctx.seed + 100 + static_cast<std::uint64_t>(t));
                               },
                               ctx.trials, ctx.seed + 5, ctx)});
    for (double rho : {0.1, 0.5}) {
      rows.push_back({"subset rho=" + format_double(rho, 1),
                      run_daemon(w.graph,
                                 [&, rho](int t) {
                                   return std::make_unique<RandomSubsetDaemon>(
                                       rho, ctx.seed + 200 +
                                                static_cast<std::uint64_t>(t));
                                 },
                                 ctx.trials, ctx.seed + 7, ctx)});
    }
    rows.push_back({"synchronous (all enabled)",
                    run_daemon(w.graph,
                               [](int) { return std::make_unique<SynchronousDaemon>(); },
                               ctx.trials, ctx.seed + 9, ctx)});
    for (auto& row : rows) {
      table.begin_row();
      table.add_cell(row.name);
      table.add_cell(row.result.mean_steps);
      table.add_cell(row.result.mean_activations);
      table.add_cell(static_cast<std::int64_t>(row.result.failures));
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "zero failures for every daemon; steps shrink and activations grow as "
      "parallelism increases — the synchronous process trades activation "
      "budget for round complexity");
  return 0;
}
