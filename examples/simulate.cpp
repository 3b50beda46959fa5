// Full-featured command-line simulator: the downstream user's entry point.
//
//   ./simulate --family=gnp --n=512 --p=0.05 --protocol=3color
//              --init=all-black --seed=42 --dot=out.dot --csv=run.csv
//
// Families: gnp, gnm, clique, path, cycle, star, tree, rtree, binary, grid,
//           torus, hypercube, regular, geometric, cliques, smallworld
// Protocols: whatever the registry holds — ./simulate --list-protocols
//            prints every name (protocol options pass as --proto-KEY=VALUE);
//            --process remains as an alias for --protocol
// Inits: all-white, all-black, random, alternating, high-degree, one-black
// Parallel runtime: with --trials M > 1, --threads N batches whole runs
// across N threads of the pool. Results are identical at any thread count.
// Graph reuse: --save-graph=g.ssg writes the constructed graph as binary
// CSR; --graph-file=g.ssg (with --graph-mmap=0 to force an owned read)
// loads one instead of generating, so a 10^7-vertex graph is built once
// and shared by every subsequent run and experiment binary.
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "core/process.hpp"
#include "core/runner.hpp"
#include "core/verify.hpp"
#include "harness/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/ssg.hpp"
#include "harness/experiment.hpp"
#include "stats/histogram.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/narrow.hpp"

using namespace ssmis;

namespace {

Graph make_graph(const CliArgs& args, std::uint64_t seed) {
  if (args.has("graph-file")) return io::load_graph_file_from_args(args);
  const std::string family = args.get_string("family", "gnp");
  const Vertex n = narrow_cast<Vertex>(
      args.get_int("n", 256, 0, std::numeric_limits<Vertex>::max()));
  const double p = args.get_double("p", 0.05);
  const int d = narrow_cast<int>(args.get_int("d", 4, 0, std::numeric_limits<int>::max()));
  if (family == "gnp") return gen::gnp(n, p, seed);
  if (family == "gnm") {
    const std::int64_t m =
        args.get_int("m", 2 * std::int64_t{n}, 0, std::numeric_limits<std::int64_t>::max());
    return gen::gnm(n, m, seed);
  }
  if (family == "clique") return gen::complete(n);
  if (family == "path") return gen::path(n);
  if (family == "cycle") return gen::cycle(n);
  if (family == "star") return gen::star(n);
  if (family == "tree") return gen::random_tree(n, seed);
  if (family == "rtree") return gen::random_recursive_tree(n, seed);
  if (family == "binary") return gen::binary_tree(n);
  if (family == "grid") {
    const Vertex side = static_cast<Vertex>(std::sqrt(static_cast<double>(n)));
    return gen::grid(side, side);
  }
  if (family == "torus") {
    const Vertex side = static_cast<Vertex>(std::sqrt(static_cast<double>(n)));
    return gen::torus(side, side);
  }
  if (family == "hypercube")
    return gen::hypercube(static_cast<int>(std::log2(std::max(2, n))));
  if (family == "regular") return gen::random_regular(n, d, seed);
  if (family == "geometric") return gen::random_geometric(n, p > 0 ? p : 0.08, seed);
  if (family == "cliques") {
    const Vertex side = static_cast<Vertex>(std::sqrt(static_cast<double>(n)));
    return gen::disjoint_cliques(side, side);
  }
  if (family == "smallworld") return gen::small_world(n, d, p, seed);
  throw std::invalid_argument("unknown --family " + family);
}

InitPattern parse_init(const std::string& name) {
  if (name == "all-white") return InitPattern::kAllWhite;
  if (name == "all-black") return InitPattern::kAllBlack;
  if (name == "random") return InitPattern::kUniformRandom;
  if (name == "alternating") return InitPattern::kAlternating;
  if (name == "high-degree") return InitPattern::kHighDegreeBlack;
  if (name == "one-black") return InitPattern::kOneBlack;
  throw std::invalid_argument("unknown --init " + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    if (args.has("list-protocols")) {
      std::cout << ProtocolRegistry::instance().describe_all();
      return 0;
    }
    // A typo'd flag must not silently run the default configuration.
    const auto unknown = args.unknown_options(
        {"family", "n", "p", "d", "m", "seed", "init", "max-rounds", "trials",
         "threads", "graph-file", "graph-mmap", "graph-trusted", "save-graph",
         "csv", "dot", "protocol", "process", "list-protocols", "proto-*"});
    if (!unknown.empty()) {
      for (const auto& err : unknown) std::cerr << "error: " << err << "\n";
      return 2;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(
        args.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));

    const Graph g = make_graph(args, seed);
    if (args.has("save-graph")) {
      const std::string out = args.get_string("save-graph", "graph.ssg");
      io::save_ssg(out, g);
      std::cout << "graph saved to " << out << " ("
                << io::ssg_file_bytes(g) << " bytes)\n";
    }
    MeasureConfig config;
    // --protocol selects any registry entry; --process is the legacy alias.
    // An unknown name aborts loudly in ProtocolRegistry::make (its error
    // lists the registered protocols; main's catch prints it, exit 2).
    config.protocol =
        args.get_string("protocol", args.get_string("process", "2state"));
    config.params = protocol_params_from_args(args);
    config.init = parse_init(args.get_string("init", "random"));
    config.seed = seed;
    config.max_rounds =
        args.get_int("max-rounds", 1000000, 0, std::numeric_limits<std::int64_t>::max());
    // --trials N > 1 batches whole runs across the pool and reports the
    // spread; a single run is traced.
    config.threads = parse_threads(args);
    config.trials = narrow_cast<int>(
        args.get_int("trials", 1, 1, std::numeric_limits<int>::max()));

    std::cout << "graph:   " << g.summary() << "\n";
    std::cout << "process: " << config.protocol
              << ", init: " << to_string(config.init) << ", seed: " << seed << "\n";
    if (config.threads > 1)
      std::cout << "threads: " << config.threads << " (batched trials)\n";

    if (config.trials > 1) {
      const Measurements m = measure_stabilization(g, config);
      std::cout << "trials:  " << config.trials << " (seeds " << seed << ".."
                << seed + static_cast<std::uint64_t>(config.trials) - 1 << ")\n";
      std::cout << "result:  " << m.summary.count << " stabilized, " << m.timeouts
                << " timeouts; rounds mean " << m.summary.mean << ", p95 "
                << m.summary.p95 << ", max " << m.summary.max << "\n";
      for (std::uint64_t s : m.timeout_seeds)
        std::cout << "timeout: re-run with --seed=" << s << " --trials=1\n";
      return m.timeouts == 0 ? 0 : 1;
    }

    const RunResult r = traced_run(g, config);
    std::cout << "result:  " << (r.stabilized ? "stabilized" : "HORIZON HIT")
              << " after " << r.rounds << " rounds\n";
    if (!r.trace.empty()) {
      // |B_t| is protocol-defined: black vertices for the MIS family,
      // claimed EDGES for matching — each gets the matching greedy reference.
      if (config.protocol == "matching") {
        std::cout << "stable |B_t|: " << r.trace.back().black
                  << " claimed edges (greedy matching reference "
                  << greedy_maximal_matching(g).size() << ")\n";
      } else {
        std::cout << "stable |B_t|: " << r.trace.back().black
                  << " (greedy MIS reference " << greedy_mis(g).size() << ")\n";
      }
      std::vector<double> unstable;
      for (const RoundStats& s : r.trace)
        unstable.push_back(static_cast<double>(s.unstable));
      std::cout << "|V_t|:   " << sparkline(downsample_max(unstable, 60)) << "\n";
    }

    if (args.has("csv")) {
      std::ofstream out(args.get_string("csv", "run.csv"));
      out << trace_to_csv(r);
      std::cout << "trace csv written to " << args.get_string("csv", "run.csv") << "\n";
    }
    if (args.has("dot")) {
      // Re-run the same seed to recover the final output set (traced_run
      // reports counts only). Determinism makes this exact — and the
      // registry makes it the SELECTED protocol's output, not always 2state.
      auto p = ProtocolRegistry::instance().make(
          config.protocol, g, with_init(config.params, config.init), seed);
      p->run(config.max_rounds, TraceMode::kNone);
      std::ofstream out(args.get_string("dot", "out.dot"));
      io::write_dot(out, g, p->output_set());
      std::cout << "dot written to " << args.get_string("dot", "out.dot") << "\n";
    }
    return r.stabilized ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
