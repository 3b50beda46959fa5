// M1: micro-benchmarks of the simulation substrate.
//
// Two modes:
//   * default: google-benchmark micro-benchmarks (step cost of each process,
//     generator throughput, verifier cost) — the numbers that bound how
//     large the reproduction sweeps can go.
//   * --engine-json[=path]: emits the machine-readable engine cost table
//     BENCH_engine.json — ns/round for every engine-backed process on
//     sparse/dense G(n,p) with tracing on and off, plus near-stabilized
//     stepping at two sizes. Future PRs diff this file to track the perf
//     trajectory; the near-stabilized rows are the active-set scheduling
//     receipt (per-round cost tracks |A_t|, not n, so the 2-state rows stay
//     flat as n quadruples).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/init.hpp"
#include "core/process.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/ssg.hpp"
#include "rng/coin_oracle.hpp"
#include "support/resource.hpp"

namespace ssmis {
namespace {

const Graph& sparse_graph() {
  static const Graph g = gen::gnp(4096, 0.002, 7);
  return g;
}

const Graph& dense_graph() {
  static const Graph g = gen::gnp(1024, 0.25, 7);
  return g;
}

const Graph& clique_graph() {
  static const Graph g = gen::complete(512);
  return g;
}

void BM_TwoStateStepSparse(benchmark::State& state) {
  const Graph& g = sparse_graph();
  const CoinOracle coins(1);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  for (auto _ : state) {
    p.step();
    benchmark::DoNotOptimize(p.num_active());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_TwoStateStepSparse);

void BM_TwoStateStepDense(benchmark::State& state) {
  const Graph& g = dense_graph();
  const CoinOracle coins(1);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  for (auto _ : state) {
    p.step();
    benchmark::DoNotOptimize(p.num_active());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_TwoStateStepDense);

void BM_ThreeStateStepDense(benchmark::State& state) {
  const Graph& g = dense_graph();
  const CoinOracle coins(1);
  ThreeStateMIS p(g, make_init3(g, InitPattern::kUniformRandom, coins), coins);
  for (auto _ : state) {
    p.step();
    benchmark::DoNotOptimize(p.num_black());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ThreeStateStepDense);

void BM_ThreeColorStepDense(benchmark::State& state) {
  const Graph& g = dense_graph();
  const CoinOracle coins(1);
  auto p = ThreeColorMIS::with_randomized_switch(
      g, make_init_g(g, InitPattern::kUniformRandom, coins), coins);
  for (auto _ : state) {
    p.step();
    benchmark::DoNotOptimize(p.num_black());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ThreeColorStepDense);

// Stepping a stabilized process with per-round tracing: the active set is
// empty, so the engine does O(1) work per round regardless of n.
void BM_TwoStateStabilizedTracedStep(benchmark::State& state) {
  const Graph g = gen::gnp(static_cast<Vertex>(state.range(0)),
                           8.0 / static_cast<double>(state.range(0)), 7);
  const CoinOracle coins(1);
  TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
  run_until_stabilized(p, 1000000);
  for (auto _ : state) {
    p.step();
    benchmark::DoNotOptimize(snapshot(p));
  }
}
BENCHMARK(BM_TwoStateStabilizedTracedStep)->Arg(16384)->Arg(65536);

void BM_FullRunClique(benchmark::State& state) {
  const Graph& g = clique_graph();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const CoinOracle coins(seed++);
    TwoStateMIS p(g, make_init2(g, InitPattern::kUniformRandom, coins), coins);
    while (!p.stabilized()) p.step();
    benchmark::DoNotOptimize(p.round());
  }
}
BENCHMARK(BM_FullRunClique);

void BM_GnpGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Graph g = gen::gnp(static_cast<Vertex>(state.range(0)), 0.01, seed++);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GnpGeneration)->Arg(1024)->Arg(8192);

void BM_RandomTreeGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Graph g = gen::random_tree(static_cast<Vertex>(state.range(0)), seed++);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_RandomTreeGeneration)->Arg(1024)->Arg(8192);

void BM_MisVerification(benchmark::State& state) {
  const Graph& g = sparse_graph();
  const auto mis = greedy_mis(g);
  const auto mask = members_to_mask(g.num_vertices(), mis);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_mis(g, mask));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_MisVerification);

void BM_CoinOracleWord(benchmark::State& state) {
  const CoinOracle coins(42);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coins.word(++t, 7, CoinTag::kMisColor));
  }
}
BENCHMARK(BM_CoinOracleWord);

// --------------------------------------------------------------------------
// BENCH_engine.json: machine-readable engine cost table.
// --------------------------------------------------------------------------

struct EngineBenchRow {
  std::string process;
  std::string graph;
  std::string phase;  // "full_run", "stabilized_step", "trial_batch",
                      // "graph_build", "compressed_codec"
  Vertex n = 0;
  std::int64_t m = 0;
  bool trace = false;
  std::int64_t rounds = 0;
  double ns_per_round = 0.0;
  int threads = 1;               // batch width for the trial_batch rows
  double trials_per_sec = 0.0;   // trial_batch rows only
  std::int64_t trials_ok = 0;    // trial_batch rows only: stabilized trials
  double edges_per_sec = 0.0;    // graph_build rows only
  double peak_rss_mb = 0.0;      // graph_build rows only: process high-water mark
  double endpoints_per_sec = 0.0;  // compressed_codec rows: decode throughput
  double bytes_per_edge = 0.0;     // compressed_codec rows: on-disk density
  bool fast_forward = true;        // protocol_stabilized_step rows: ff knob state
  // Parallel rows recorded at a width beyond this host's cores measure
  // oversubscription, not speedup — the marker makes the caveat machine-
  // readable instead of a README footnote.
  bool suspect = false;
};

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

// Times run_until_stabilized from a uniform-random start.
template <typename MakeProcess>
EngineBenchRow full_run_row(const std::string& process, const std::string& gname,
                            const Graph& g, MakeProcess make, TraceMode mode) {
  auto p = make();
  const auto start = Clock::now();
  const RunResult r = run_until_stabilized(p, 200000, mode);
  const double ns = elapsed_ns(start);
  EngineBenchRow row;
  row.process = process;
  row.graph = gname;
  row.phase = "full_run";
  row.n = g.num_vertices();
  row.m = g.num_edges();
  row.trace = mode == TraceMode::kPerRound;
  row.rounds = r.rounds > 0 ? r.rounds : 1;
  row.ns_per_round = ns / static_cast<double>(row.rounds);
  return row;
}

// Times traced stepping of an already-stabilized process: the per-round cost
// is driven by the (empty or tiny) active set, not by n.
template <typename MakeProcess>
EngineBenchRow stabilized_row(const std::string& process, const std::string& gname,
                              const Graph& g, MakeProcess make, std::int64_t reps) {
  auto p = make();
  run_until_stabilized(p, 1000000);
  std::int64_t checksum = 0;
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < reps; ++i) {
    p.step();
    const RoundStats s = snapshot(p);
    checksum += s.black + s.active;
  }
  benchmark::DoNotOptimize(checksum);  // keep the timed loop observable
  const double ns = elapsed_ns(start);
  EngineBenchRow row;
  row.process = process;
  row.graph = gname;
  row.phase = "stabilized_step";
  row.n = g.num_vertices();
  row.m = g.num_edges();
  row.trace = true;
  row.rounds = reps;
  row.ns_per_round = ns / static_cast<double>(reps);
  return row;
}

// A parallel row recorded wider than this host's cores measured
// oversubscription, not speedup. hardware_concurrency() may legally return
// 0 (unknown): clamp so the threads=1 baselines can never be suspect.
bool suspect_width(int threads) {
  return static_cast<unsigned>(threads) >
         std::max(1u, std::thread::hardware_concurrency());
}

// Trial-batch rows: trials/sec of measure_stabilization on the G(n,p) sweep
// workload (the shape of every headline table) at 1/2/4/8 threads.
void append_trial_batch_rows(std::vector<EngineBenchRow>& rows) {
  const Vertex n = 2048;
  const Graph g = gen::gnp(n, std::log(static_cast<double>(n)) / n, 7);
  const std::string gname = "gnp_sweep_n2048_p=lnn/n";
  for (int threads : {1, 2, 4, 8}) {
    MeasureConfig config;
    config.protocol = "2state";
    config.trials = 48;
    config.seed = 1;
    config.max_rounds = 1000000;
    config.threads = threads;
    config.batch = true;
    const auto start = Clock::now();
    const Measurements m = measure_stabilization(g, config);
    const double ns = elapsed_ns(start);
    EngineBenchRow row;
    row.process = "two_state";
    row.graph = gname;
    row.phase = "trial_batch";
    row.n = g.num_vertices();
    row.m = g.num_edges();
    row.trials_ok = static_cast<std::int64_t>(m.summary.count);
    row.trials_per_sec = static_cast<double>(config.trials) * 1e9 / ns;
    row.threads = threads;
    row.suspect = suspect_width(threads);
    rows.push_back(row);
  }
}

// Graph-substrate rows: streaming construction throughput (edges/sec) and
// the process's peak RSS after each build, plus the `.ssg` save -> mmap
// round-trip. peak_rss_mb is a lifetime high-water mark — compare rows
// within one emission run in order, not across runs.
void append_graph_build_rows(std::vector<EngineBenchRow>& rows) {
  // Per-process scratch dir: concurrent bench runs on one host must not
  // race on the round-trip files.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ssmis_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (Vertex n : {1 << 18, 1 << 20}) {
    const double p = 8.0 / static_cast<double>(n);
    const auto start = Clock::now();
    const Graph g = gen::gnp(n, p, 7);
    const double ns = elapsed_ns(start);
    EngineBenchRow row;
    row.process = "csr_builder";
    row.graph = "gnp_avgdeg8_n" + std::to_string(n);
    row.phase = "graph_build";
    row.n = n;
    row.m = g.num_edges();
    row.edges_per_sec = static_cast<double>(g.num_edges()) * 1e9 / ns;
    row.peak_rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    rows.push_back(row);

    const std::string path = (dir / ("n" + std::to_string(n) + ".ssg")).string();
    const auto save_start = Clock::now();
    io::save_ssg(path, g);
    const Graph mapped = io::mmap_ssg(path);
    const double rt_ns = elapsed_ns(save_start);
    EngineBenchRow rt;
    rt.process = "ssg_save_mmap";
    rt.graph = row.graph;
    rt.phase = "graph_build";
    rt.n = n;
    rt.m = mapped.num_edges();
    rt.edges_per_sec = static_cast<double>(mapped.num_edges()) * 1e9 / rt_ns;
    rt.peak_rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    rows.push_back(rt);
  }
  std::filesystem::remove_all(dir);
}

// Compressed-adjacency codec rows: full-sweep decode throughput (streaming
// RowStream decode of every row, endpoints/sec) plus the storage density in
// bytes/edge against the plain CSR equivalent. The decode rate bounds the
// per-round cost penalty of running a process on compressed storage; the
// density is the RSS lever that makes 10^8 vertices fit.
void append_compressed_codec_rows(std::vector<EngineBenchRow>& rows) {
  for (Vertex n : {1 << 18, 1 << 20}) {
    const double p = 8.0 / static_cast<double>(n);
    const Graph g = gen::gnp(n, p, 7);
    const Graph c = Graph::compress(g);
    // Warm + measured full-row sweeps.
    NeighborScratch scratch;
    std::int64_t checksum = 0;
    const int sweeps = 5;
    const auto start = Clock::now();
    for (int s = 0; s < sweeps; ++s) {
      Graph::RowStream stream(c);
      for (Vertex u = 0; u < c.num_vertices(); ++u)
        for (Vertex v : stream.next(scratch)) checksum += v;
    }
    const double ns = elapsed_ns(start);
    volatile std::int64_t sink = checksum;  // keep the sweeps observable
    (void)sink;

    EngineBenchRow row;
    row.process = "compressed_decode";
    row.graph = "gnp_avgdeg8_n" + std::to_string(n);
    row.phase = "compressed_codec";
    row.n = n;
    row.m = c.num_edges();
    row.endpoints_per_sec =
        static_cast<double>(2 * c.num_edges()) * sweeps * 1e9 / ns;
    row.bytes_per_edge = c.num_edges() > 0
                             ? static_cast<double>(io::ssg_file_bytes(c)) /
                                   static_cast<double>(c.num_edges())
                             : 0.0;
    // No peak_rss_mb here: the process high-water mark is monotone and by
    // this point reflects the earlier graph_build rows, not the codec.
    rows.push_back(row);
  }
}

void append_process_rows(std::vector<EngineBenchRow>& rows, const std::string& gname,
                         const Graph& g) {
  const CoinOracle coins(1);
  for (TraceMode mode : {TraceMode::kNone, TraceMode::kPerRound}) {
    rows.push_back(full_run_row("two_state", gname, g,
                                [&] {
                                  return TwoStateMIS(
                                      g, make_init2(g, InitPattern::kUniformRandom, coins),
                                      coins);
                                },
                                mode));
    rows.push_back(full_run_row("two_state_variant", gname, g,
                                [&] {
                                  return TwoStateMIS(
                                      g, make_init2(g, InitPattern::kUniformRandom, coins),
                                      TwoStateRule(coins, 0.5, false));
                                },
                                mode));
    rows.push_back(full_run_row("three_state", gname, g,
                                [&] {
                                  return ThreeStateMIS(
                                      g, make_init3(g, InitPattern::kUniformRandom, coins),
                                      coins);
                                },
                                mode));
    rows.push_back(full_run_row("three_color", gname, g,
                                [&] {
                                  return ThreeColorMIS::with_randomized_switch(
                                      g, make_init_g(g, InitPattern::kUniformRandom, coins),
                                      coins);
                                },
                                mode));
  }
}

// Near-stabilized stepping for EVERY registered protocol, driven through
// the type-erased registry path (the same one measure_stabilization uses):
// a new workload lands in this table with zero bench code. The networks and
// the 3-state family keep re-randomizing at the fixed point by design, so
// their per-round cost tracks |MIS|, not n; the 2-state family rows are the
// O(1) active-set receipt.
void append_protocol_rows(std::vector<EngineBenchRow>& rows) {
  const Vertex n = 16384;
  const Graph g = gen::gnp(n, 8.0 / static_cast<double>(n), 7);
  const std::string gname = "gnp_avgdeg8_n" + std::to_string(n);
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    // Protocols that declare the stable-periodic fast-forward knob get an
    // A/B pair (ff on and off); the rest get one row at the default.
    const auto& opts = ProtocolRegistry::instance().options(name);
    const bool has_ff =
        std::find(opts.begin(), opts.end(), "fast-forward") != opts.end();
    for (const bool ff : has_ff ? std::vector<bool>{true, false}
                                : std::vector<bool>{true}) {
      ProtocolParams params;
      if (has_ff) params.set("fast-forward", ff ? "1" : "0");
      auto p = ProtocolRegistry::instance().make(name, g, params, 1);
      const RunResult pre = p->run(1000000, TraceMode::kNone);
      // Settle well past stabilization so the timed window measures the
      // steady state (parked periodic sets, drained lazy-switch replays).
      for (int i = 0; i < 1000; ++i) p->step();
      // Adaptive reps: fast-forwarded rows run in single-digit ns/round, so
      // a fixed small rep count would measure clock granularity. Grow the
      // window until it is comfortably above timer resolution.
      std::int64_t reps = 200;
      double ns = 0.0;
      for (;;) {
        std::int64_t checksum = 0;
        const auto start = Clock::now();
        for (std::int64_t i = 0; i < reps; ++i) {
          p->step();
          checksum += p->snapshot().black;
        }
        benchmark::DoNotOptimize(checksum);
        ns = elapsed_ns(start);
        if (ns >= 2e7 || reps >= (std::int64_t{1} << 22)) break;
        reps *= 8;
      }
      EngineBenchRow row;
      row.process = name;
      row.graph = gname;
      row.phase = "protocol_stabilized_step";
      row.n = n;
      row.m = g.num_edges();
      row.trace = true;
      row.rounds = reps;
      row.ns_per_round = ns / static_cast<double>(reps);
      row.trials_ok = pre.stabilized ? 1 : 0;  // repurposed: pre-run stabilized?
      row.fast_forward = ff;
      rows.push_back(row);
    }
  }
}

void write_engine_json(const std::string& path) {
  std::vector<EngineBenchRow> rows;
  {
    const Graph g = gen::gnp(4096, 0.002, 7);
    append_process_rows(rows, "gnp_sparse_n4096_p0.002", g);
  }
  {
    const Graph g = gen::gnp(1024, 0.25, 7);
    append_process_rows(rows, "gnp_dense_n1024_p0.25", g);
  }
  // Active-set scaling receipt: traced stepping of a stabilized 2-state
  // process must not grow with n (the worklist is empty); the 3-state rows
  // scale with |MIS| by design (stable blacks keep re-randomizing).
  for (Vertex n : {16384, 65536}) {
    const Graph g = gen::gnp(n, 8.0 / static_cast<double>(n), 7);
    const std::string gname = "gnp_avgdeg8_n" + std::to_string(n);
    const CoinOracle coins(1);
    rows.push_back(stabilized_row(
        "two_state", gname, g,
        [&] {
          return TwoStateMIS(g, make_init2(g, InitPattern::kUniformRandom, coins),
                             coins);
        },
        4000));
    rows.push_back(stabilized_row(
        "three_state", gname, g,
        [&] {
          return ThreeStateMIS(g, make_init3(g, InitPattern::kUniformRandom, coins),
                               coins);
        },
        200));
  }
  // Near-stabilized ns/round for every registered protocol (registry path).
  append_protocol_rows(rows);
  // Parallel-runtime rows (batched trials at 1/2/4/8 threads). Interpret
  // speedups against "host_threads" below: on a 1-core host every width
  // measures ~1x by physics, not by design.
  append_trial_batch_rows(rows);
  // Graph-substrate rows: streaming build throughput + .ssg round-trip.
  append_graph_build_rows(rows);
  // Compressed-adjacency codec rows: decode throughput + bytes/edge.
  append_compressed_codec_rows(rows);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_micro: cannot open " << path << " for writing\n";
    std::exit(1);
  }
  int suspect_parallel_rows = 0;
  for (const EngineBenchRow& r : rows) suspect_parallel_rows += r.suspect ? 1 : 0;
  out << "{\n";
  out << "  \"schema\": \"ssmis-bench-engine-v6\",\n";
  out << "  \"description\": \"per-round stepping cost of the unified sparse "
         "process engine, near-stabilized rows for every registry protocol "
         "(protocol_stabilized_step, fast-forward A/B pairs where the "
         "protocol declares the knob), parallel-runtime rows (trial_batch "
         "trials/sec at 1/2/4/8 threads), and "
         "graph-substrate rows (graph_build edges/sec + peak RSS for the "
         "streaming CSR builder and the .ssg save/mmap round-trip), and "
         "compressed-adjacency rows (compressed_codec: full-sweep decode "
         "endpoints/sec and on-disk bytes/edge of the varint/delta codec)\",\n";
  out << "  \"unit\": \"ns_per_round\",\n";
  out << "  \"host_threads\": " << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  // Rows whose thread width exceeds host_threads measured oversubscription
  // on this machine; diff tools must not read them as regressions.
  out << "  \"suspect_parallel_rows\": " << suspect_parallel_rows << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EngineBenchRow& r = rows[i];
    out << "    {\"process\": \"" << r.process << "\", \"graph\": \"" << r.graph
        << "\", \"phase\": \"" << r.phase << "\", \"n\": " << r.n
        << ", \"m\": " << r.m << ", \"trace\": " << (r.trace ? "true" : "false")
        << ", \"rounds\": " << r.rounds << ", \"threads\": " << r.threads
        << ", \"ns_per_round\": " << r.ns_per_round;
    if (r.phase == "trial_batch")
      out << ", \"trials_ok\": " << r.trials_ok
          << ", \"trials_per_sec\": " << r.trials_per_sec;
    if (r.phase == "graph_build")
      out << ", \"edges_per_sec\": " << r.edges_per_sec
          << ", \"peak_rss_mb\": " << r.peak_rss_mb;
    if (r.phase == "compressed_codec")
      out << ", \"endpoints_per_sec\": " << r.endpoints_per_sec
          << ", \"bytes_per_edge\": " << r.bytes_per_edge;
    if (r.phase == "protocol_stabilized_step")
      out << ", \"pre_run_stabilized\": " << (r.trials_ok ? "true" : "false")
          << ", \"fast_forward\": " << (r.fast_forward ? "true" : "false");
    if (r.suspect) out << ", \"suspect\": true";
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
}

}  // namespace
}  // namespace ssmis

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--engine-json") {
      ssmis::write_engine_json("BENCH_engine.json");
      return 0;
    }
    if (arg.rfind("--engine-json=", 0) == 0) {
      ssmis::write_engine_json(arg.substr(std::string("--engine-json=").size()));
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
