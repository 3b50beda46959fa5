// Experiment E14: self-stabilization under transient faults.
//
// Self-stabilization (Dijkstra 1974) gives fault recovery for free: after
// an adversary rewrites any subset of vertex states (and clock levels for
// the 3-color process), the configuration is just another "initial state"
// and the process re-converges. We measure re-stabilization time as a
// function of the corrupted fraction.
//
// The protocol columns come from the registry: every run constructs its
// process by name, injects faults through the type-erased
// Process::inject_fault (which covers auxiliary state like switch levels),
// and re-verifies the output with is_mis. --protocol NAME restricts the
// table to one protocol — including the non-enum-era ones (daemon,
// beeping, stoneage).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/faults.hpp"
#include "core/process.hpp"
#include "graph/generators.hpp"
#include "stats/summary.hpp"

using namespace ssmis;

namespace {

Summary recovery_summary(const Graph& g, const std::string& protocol,
                         const bench::ExpContext& ctx, int trials,
                         std::uint64_t seed, double fraction) {
  const auto outcomes =
      ctx.trial_batch(trials).map<double>([&](int trial) -> double {
        auto p = ProtocolRegistry::instance().make(
            protocol, g, with_init(ctx.proto_params, InitPattern::kUniformRandom),
            seed + static_cast<std::uint64_t>(trial));
        RunResult r = p->run(2000000, TraceMode::kNone);
        if (!r.stabilized) return -1.0;
        inject_faults(*p, fraction, trial);
        r = p->run(2000000, TraceMode::kNone);
        if (!r.stabilized) return -1.0;
        p->verify_output();  // throws if the recovered output is invalid
        return static_cast<double>(r.rounds);
      });
  std::vector<double> rounds;
  for (double v : outcomes)
    if (v >= 0.0) rounds.push_back(v);
  return summarize(rounds);
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E14: transient-fault recovery",
      "self-stabilization => re-convergence from any corruption; recovery "
      "time grows mildly with the corrupted fraction",
      10);

  const Graph sparse = ctx.cell_graph([&] { return gen::gnp(512, 0.02, ctx.seed); });
  const Graph tree = ctx.cell_graph([&] { return gen::random_tree(1024, ctx.seed + 1); });
  const Graph dense = ctx.cell_graph([&] { return gen::gnp(256, 0.3, ctx.seed + 2); });

  struct Workload {
    std::string name;
    const Graph* graph;
  };
  const std::vector<Workload> workloads = {
      {"gnp512 p=0.02", &sparse}, {"tree1024", &tree}, {"gnp256 p=0.3", &dense}};

  const std::vector<std::string> protocols =
      ctx.protocols_or({"2state", "3state", "3color"});

  for (const auto& w : workloads) {
    print_banner(std::cout, "recovery rounds on " + w.name);
    std::vector<std::string> headers = {"corrupt frac"};
    for (const auto& protocol : protocols) {
      headers.push_back(protocol + " mean");
      headers.push_back(protocol + " p95");
    }
    TextTable table(headers);
    // One fixed seed offset per protocol, derived from its position in the
    // global registry order: every fraction row re-corrupts the SAME
    // stabilized baselines (the sweep isolates the fraction effect), and a
    // --protocol run reproduces its column from the full table exactly.
    const auto registry_names = ProtocolRegistry::instance().names();
    const auto protocol_seed = [&](const std::string& protocol) {
      std::uint64_t index = 0;
      for (std::size_t i = 0; i < registry_names.size(); ++i)
        if (registry_names[i] == protocol) index = static_cast<std::uint64_t>(i);
      return ctx.seed + 31 + 6 * index;
    };
    for (double fraction : {0.05, 0.2, 0.5, 1.0}) {
      table.begin_row();
      table.add_cell(fraction, 2);
      for (const auto& protocol : protocols) {
        const Summary s = recovery_summary(*w.graph, protocol, ctx, ctx.trials,
                                           protocol_seed(protocol), fraction);
        table.add_cell(s.mean);
        table.add_cell(s.p95);
      }
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "every injected run re-stabilizes to a valid output; recovery time is "
      "in the same order as fresh stabilization even at 100% corruption");
  return 0;
}
