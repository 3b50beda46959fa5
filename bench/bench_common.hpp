// Shared plumbing for the experiment binaries: standard header/footer
// formatting so every table in bench_output.txt is self-describing, plus
// the common CLI knobs (--trials, --seed, --threads, and protocol
// selection).
//
// Protocol selection is uniform across every binary:
//   --list-protocols     print every registered protocol and exit
//   --protocol NAME      run the named protocol (validated against the
//                        registry up front — unknown names abort loudly)
//   --proto-KEY=VALUE    protocol-specific options (validated per protocol)
// Binaries whose experiment is intrinsically tied to one protocol declare
// ProtocolPolicy::kFixed and note (rather than silently ignore) an
// attempted override.
#pragma once

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/ssg.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "harness/suites.hpp"
#include "harness/trial_batch.hpp"
#include "support/cli.hpp"
#include "support/narrow.hpp"
#include "support/table.hpp"

namespace ssmis::bench {

struct ExpContext {
  CliArgs args;
  int trials;
  std::uint64_t seed;
  // --scale, for the binaries that list "scale" in init_experiment's
  // extra_flags and size their cells with scaled(); the rest reject the flag.
  double scale;
  int threads = 1;  // --threads (parse_threads): trials batched across the pool
  std::string protocol;      // --protocol (validated), or the binary's default
  ProtocolParams proto_params;  // --proto-KEY=VALUE options
  // --graph-file=path: a pre-built graph (`.ssg` binary, mmap'd read-only by
  // default, or whitespace edge list) substituted for *every* generated cell
  // graph, so one expensive 10^7-vertex construction is reused across all
  // experiment binaries. Copies share the underlying CSR storage.
  std::optional<Graph> graph_override;

  // A default problem size times --scale, as a vertex count. A product
  // that does not fit a Vertex is an operator error: one line naming
  // --scale and exit 2, like a bad flag.
  Vertex scaled(std::int64_t size) const {
    const double n = static_cast<double>(size) * scale;
    if (!(n <= static_cast<double>(std::numeric_limits<Vertex>::max()))) {
      std::cerr << "error: --scale: expected a size times --scale in [0, "
                << std::numeric_limits<Vertex>::max() << "], got " << size << " x "
                << scale << "\n";
      std::exit(2);
    }
    return static_cast<Vertex>(n);
  }

  // Copies --threads into a measurement config (the experiment keeps
  // setting trials/seed itself — cells offset seeds).
  void apply_parallel(MeasureConfig& config) const { config.threads = threads; }

  // Full protocol-generic wiring: the selected protocol, its options, and
  // the parallel runtime. Cells that sweep protocols themselves set
  // config.protocol after this.
  void apply(MeasureConfig& config) const {
    config.protocol = protocol;
    config.params = proto_params;
    apply_parallel(config);
  }

  // For protocol-sweep tables: the user's --protocol restricts the sweep to
  // that one protocol; otherwise the binary's default list runs.
  std::vector<std::string> protocols_or(std::vector<std::string> defaults) const {
    if (args.has("protocol")) return {protocol};
    return defaults;
  }

  // Scheduler for a binary-local trial loop (same knobs, same determinism
  // contract as measure_stabilization).
  TrialBatch trial_batch(int num_trials) const {
    return TrialBatch(num_trials, threads);
  }

  // Loads the --graph-file (honoring --graph-mmap/--graph-trusted). An
  // unreadable, corrupt, or unsupported-version file is an operator error
  // shared by every binary: one line + exit 2, like bad flags — not an
  // uncaught runtime_error. Used by the default kLoad path below and by
  // kDefer binaries that time the load themselves (exp_scale).
  Graph load_graph_file_or_exit() const {
    try {
      return io::load_graph_file_from_args(args);
    } catch (const std::runtime_error& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }

  // The graph for one experiment cell: the --graph-file override when given,
  // otherwise whatever `make` generates. Returning by value is cheap either
  // way — Graph is a shared-storage handle.
  template <typename MakeGraph>
  Graph cell_graph(MakeGraph&& make) const {
    if (graph_override) return *graph_override;
    return std::forward<MakeGraph>(make)();
  }

  // Named-suite variant for the cross-cutting binaries: --graph-file
  // collapses the whole suite to the one externally supplied graph. Like
  // cell_graph, the fallback is a factory so overridden runs never pay for
  // generating suite graphs they will discard.
  template <typename MakeSuite>
  std::vector<NamedGraph> suite_or(MakeSuite&& make) const {
    if (graph_override) return {{"graph-file", *graph_override}};
    return std::forward<MakeSuite>(make)();
  }
};

// How a binary treats --graph-file:
//   kLoad   (default) load it eagerly into ctx.graph_override;
//   kRefuse reject it up front with a note, before the (possibly
//           multi-hundred-MB) file is read — for binaries whose cells must
//           be fresh distribution draws (exp_good_graph);
//   kDefer  leave loading (and its timing) to the binary itself (exp_scale
//           measures the load as a pipeline stage).
enum class GraphFilePolicy { kLoad, kRefuse, kDefer };

// How a binary treats --protocol:
//   kSelectable (default) honor it (validated against the registry);
//   kFixed      the experiment is specific to its protocols — an attempted
//               override prints a note and the default runs.
enum class ProtocolPolicy { kSelectable, kFixed };

// Prints every registered protocol ("--list-protocols").
inline void print_protocols(std::ostream& os) {
  os << ProtocolRegistry::instance().describe_all();
}

inline ExpContext init_experiment(int argc, char** argv, const std::string& id,
                                  const std::string& claim, int default_trials,
                                  GraphFilePolicy graph_file_policy =
                                      GraphFilePolicy::kLoad,
                                  const std::string& default_protocol = "2state",
                                  ProtocolPolicy protocol_policy =
                                      ProtocolPolicy::kSelectable,
                                  std::vector<std::string> extra_flags = {}) {
  ExpContext ctx;
  ctx.args = CliArgs::parse(argc, argv);
  if (ctx.args.has("list-protocols")) {
    print_protocols(std::cout);
    std::exit(0);
  }
  // Reject typo'd flags loudly before anything runs with defaults.
  std::vector<std::string> known = {
      "trials",        "seed",     "threads",        "graph-file", "graph-mmap",
      "graph-trusted", "protocol", "list-protocols", "proto-*"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  const auto unknown = ctx.args.unknown_options(known);
  if (!unknown.empty()) {
    for (const auto& err : unknown) std::cerr << "error: " << err << "\n";
    std::exit(2);
  }
  ctx.trials = narrow_cast<int>(ctx.args.get_int(
      "trials", default_trials, 1, std::numeric_limits<int>::max()));
  ctx.seed = static_cast<std::uint64_t>(
      ctx.args.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  ctx.scale = ctx.args.get_double("scale", 1.0, 0.0, std::numeric_limits<double>::max());
  ctx.threads = parse_threads(ctx.args);
  ctx.protocol = default_protocol;
  ctx.proto_params = protocol_params_from_args(ctx.args);
  std::cout << "#### Experiment " << id << "\n";
  std::cout << "# paper claim: " << claim << "\n";
  std::cout << "# trials/cell: " << ctx.trials << ", seed: " << ctx.seed << "\n";
  if (protocol_policy == ProtocolPolicy::kFixed &&
      !ctx.proto_params.keys().empty()) {
    // Same hardening contract as unknown flags: an option that will not be
    // honored must never be swallowed silently.
    std::cout << "# note: --proto-* options ignored — this experiment sets "
                 "its protocol options itself\n";
  }
  if (ctx.args.has("protocol")) {
    const std::string requested = ctx.args.get_string("protocol", default_protocol);
    if (protocol_policy == ProtocolPolicy::kFixed) {
      std::cout << "# note: --protocol ignored — this experiment is specific "
                   "to its protocol(s)\n";
    } else if (!ProtocolRegistry::instance().contains(requested)) {
      std::cerr << "error: " << "unknown --protocol '" << requested << "'\n";
      std::cerr << "registered protocols:\n";
      print_protocols(std::cerr);
      std::exit(2);
    } else {
      ctx.protocol = requested;
      std::cout << "# protocol: " << requested << "\n";
    }
  }
  if (protocol_policy == ProtocolPolicy::kSelectable) {
    // Probe construction on a single vertex: validates --proto-* option
    // keys AND values against the selected protocol up front, so a bad
    // knob exits 2 cleanly here instead of throwing out of a trial worker
    // halfway through a table.
    try {
      const Graph probe = gen::path(1);
      ProtocolRegistry::instance().make(ctx.protocol, probe, ctx.proto_params, 1);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }
  if (ctx.args.has("graph-file")) {
    switch (graph_file_policy) {
      case GraphFilePolicy::kLoad:
        ctx.graph_override = ctx.load_graph_file_or_exit();
        std::cout << "# graph-file: " << ctx.args.get_string("graph-file", "")
                  << " -> " << ctx.graph_override->summary() << " ("
                  << ctx.graph_override->storage_mode()
                  << "); overrides every generated cell graph\n";
        break;
      case GraphFilePolicy::kRefuse:
        std::cout << "# note: --graph-file ignored — this experiment samples a "
                     "graph distribution, a fixed graph cannot stand in for it\n";
        break;
      case GraphFilePolicy::kDefer:
        break;  // the binary loads (and times) the file itself
    }
  }
  if (ctx.threads > 1)
    std::cout << "# threads: " << ctx.threads << " (batched trials)\n";
  return ctx;
}

inline void finish_experiment(const std::string& verdict) {
  std::cout << "# verdict: " << verdict << "\n\n";
}

inline double log2n(double n) { return std::log2(std::max(2.0, n)); }

}  // namespace ssmis::bench
