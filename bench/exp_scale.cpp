// Scale driver for the large-graph substrate: streaming CSR construction,
// `.ssg` save / mmap reload, and a TwoStateMIS run to stabilization — with
// construction throughput (edges/sec), wall times, and peak-RSS accounting
// at every stage. This is the receipt for ROADMAP's "tens of millions of
// vertices" item: the whole pipeline at n = 10^7 fits CI-class memory
// because construction peaks near the final CSR footprint (one-pass G(n,p)
// build, no buffered edge list, 4 bytes/vertex of counts, later cursors, on
// top) and reuse goes through the mmap'd file.
//
//   ./exp_scale --n=10000000 --avg-deg=8 --save=g.ssg   # generate + persist
//   ./exp_scale --graph-file=g.ssg                      # reuse (mmap)
//
// --graph-compressed switches the whole pipeline onto the varint/delta
// adjacency codec — generation streams straight into compressed storage
// (chunked replays, peak ~ the compressed size), --save writes `.ssg` v2,
// and the reload + stabilize stages run off the compressed payload. That is
// the n = 10^8 regime: plain CSR at that scale is ~4.0 GB of adjacency
// before any process state, compressed is ~0.6x with the offsets array
// gone entirely.
//
// Other knobs: --p (overrides --avg-deg), --graph-mmap=0 (owned-read
// reload), --compress-chunk (endpoint budget per construction chunk),
// --max-rounds, and the standard --seed. Every stage row names the storage
// mode it actually ran against; an unsupported --graph-file format version
// exits 2 with a one-line error.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "bench_common.hpp"
#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/two_state.hpp"
#include "graph/generators.hpp"
#include "graph/ssg.hpp"
#include "support/resource.hpp"

using namespace ssmis;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double mb(std::int64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "SCALE: large-graph substrate pipeline",
      "streaming CSR construction + binary mmap reuse unlock n >= 10^7 within "
      "CI-class memory; the protocol itself is polylog and never the bottleneck",
      1, bench::GraphFilePolicy::kDefer, "2state",
      bench::ProtocolPolicy::kSelectable,
      {"n", "p", "avg-deg", "max-rounds", "save", "compress-chunk",
       "post-rounds"});  // load = timed stage below

  constexpr Vertex kMaxVertices = std::numeric_limits<Vertex>::max();
  constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
  const double scaled_n =
      static_cast<double>(ctx.args.get_int("n", 2000000, 0, kMaxVertices)) * ctx.scale;
  if (!(scaled_n >= 0 && scaled_n <= kMaxVertices)) {
    std::cerr << "error: --n: expected --n times --scale in [0, " << kMaxVertices
              << "], got " << scaled_n << "\n";
    return 2;
  }
  const Vertex n = static_cast<Vertex>(scaled_n);
  const double avg_deg = ctx.args.get_double("avg-deg", 8.0);
  const double p =
      ctx.args.get_double("p", n > 1 ? avg_deg / static_cast<double>(n - 1) : 0.0);
  const std::string save_path = ctx.args.get_string("save", "");

  TextTable table({"stage", "seconds", "edges/sec", "peak-rss-mb", "detail"});
  const std::int64_t rss_baseline = current_rss_bytes();

  Graph g;
  if (ctx.args.has("graph-file")) {
    const auto start = Clock::now();
    // honors --graph-mmap/--graph-trusted; --graph-compressed transcodes a
    // plain file after the load (a v2 file is already compressed); an
    // unreadable or unsupported-version file exits 2 with one line.
    g = ctx.load_graph_file_or_exit();
    const double secs = seconds_since(start);
    const double eps = secs > 0 ? static_cast<double>(g.num_edges()) / secs : 0.0;
    table.begin_row();
    table.add_cell(std::string("load (--graph-file") +
                   (ctx.args.get_bool("graph-trusted", false) ? ", trusted)" : ")"));
    table.add_cell(secs, 3);
    table.add_cell(eps, 0);
    table.add_cell(mb(peak_rss_bytes()), 1);
    table.add_cell(g.summary() + " (" + g.storage_mode() + ")");
  } else {
    const auto start = Clock::now();
    g = ctx.compress_graphs
            ? gen::gnp_compressed(n, p, ctx.seed,
                                  ctx.args.get_int("compress-chunk", 0, 0, kMaxInt64))
            : gen::gnp(n, p, ctx.seed);
    const double secs = seconds_since(start);
    const double eps = secs > 0 ? static_cast<double>(g.num_edges()) / secs : 0.0;
    const std::int64_t graph_bytes = io::ssg_file_bytes(g);
    const double build_ratio =
        graph_bytes > 0
            ? static_cast<double>(peak_rss_bytes() - rss_baseline) /
                  static_cast<double>(graph_bytes)
            : 0.0;
    char detail[160];
    if (g.is_compressed()) {
      const double bpe = g.num_edges() > 0 ? static_cast<double>(graph_bytes) /
                                                 static_cast<double>(g.num_edges())
                                           : 0.0;
      std::snprintf(detail, sizeof(detail),
                    "%s; peak/base %.2fx of %.0f MB compressed (%.2f bytes/edge)",
                    g.summary().c_str(), build_ratio, mb(graph_bytes), bpe);
    } else {
      std::snprintf(detail, sizeof(detail), "%s; peak/base %.2fx of %.0f MB CSR",
                    g.summary().c_str(), build_ratio, mb(graph_bytes));
    }
    table.begin_row();
    table.add_cell(std::string("generate gnp (") +
                   (g.is_compressed() ? "compress sink)" : "streaming)"));
    table.add_cell(secs, 3);
    table.add_cell(eps, 0);
    table.add_cell(mb(peak_rss_bytes()), 1);
    table.add_cell(detail);
  }

  if (!save_path.empty()) {
    auto start = Clock::now();
    io::save_ssg(save_path, g);
    const double save_secs = seconds_since(start);
    table.begin_row();
    table.add_cell("save .ssg");
    table.add_cell(save_secs, 3);
    table.add_cell("-");
    table.add_cell(mb(peak_rss_bytes()), 1);
    table.add_cell(save_path + " (" + std::to_string(io::ssg_file_bytes(g)) + " bytes)");

    // Swap the in-heap graph for the mapped file: stepping below runs off
    // page-cache-backed memory the OS can reclaim under pressure.
    start = Clock::now();
    Graph mapped = io::mmap_ssg(save_path);
    const double map_secs = seconds_since(start);
    const bool same = mapped == g;
    g = std::move(mapped);
    table.begin_row();
    table.add_cell(std::string("mmap reload + verify (") + g.storage_mode() + ")");
    table.add_cell(map_secs, 3);
    table.add_cell("-");
    table.add_cell(mb(peak_rss_bytes()), 1);
    table.add_cell(same ? "mapped == generated" : "MISMATCH");
    if (!same) {
      table.print(std::cout);
      bench::finish_experiment("FAILED: mmap reload diverged from the generated graph");
      return 1;
    }
  }

  {
    // Any registry protocol drives the stabilize stage (--protocol NAME);
    // the default matches the historical 2-state receipt.
    const auto start = Clock::now();
    auto process = ProtocolRegistry::instance().make(
        ctx.protocol, g, with_init(ctx.proto_params, InitPattern::kUniformRandom),
        ctx.seed + 1);
    const std::int64_t max_rounds = ctx.args.get_int("max-rounds", 1000000, 0, kMaxInt64);
    const RunResult r = process->run(max_rounds, TraceMode::kNone);
    const double secs = seconds_since(start);
    table.begin_row();
    table.add_cell(ctx.protocol + (r.stabilized ? " stabilized" : " HORIZON HIT"));
    table.add_cell(secs, 3);
    table.add_cell("-");
    table.add_cell(mb(peak_rss_bytes()), 1);
    // Name the storage the timed run actually stepped on — after the
    // optional save/reload above, it is NOT necessarily the generated one.
    table.add_cell(std::to_string(r.rounds) + " rounds, |output set| = " +
                   std::to_string(process->output_set().size()) +
                   ", graph storage: " + g.storage_mode());
    if (!r.stabilized) {
      table.print(std::cout);
      bench::finish_experiment("FAILED: horizon hit before stabilization — "
                               "raise --max-rounds or investigate");
      return 1;
    }

    // --post-rounds=N: keep stepping the stabilized process and report the
    // steady-state ns/round. This is the stable-periodic fast-forward
    // receipt at scale — with the oscillating protocols (3state, 3color,
    // stoneage) the whole MIS sits in parked limit cycles, so the figure
    // stays near the 2-state one instead of tracking |MIS| * deg. The
    // first- and second-half rates are reported separately because the
    // window opens at stabilized() = "the black set is an MIS", which
    // covered grays survive: until the last gray's own switch fires, the
    // 3-color rule cannot defer its switch, so the early rounds pay the
    // full pre-optimization cost and only the tail shows the steady state.
    const std::int64_t post_rounds = ctx.args.get_int("post-rounds", 0, 0, kMaxInt64);
    if (post_rounds > 0) {
      const std::int64_t half = post_rounds / 2;
      const auto post_start = Clock::now();
      std::int64_t checksum = 0;
      for (std::int64_t i = 0; i < half; ++i) {
        process->step();
        checksum += process->snapshot().active;
      }
      const auto tail_start = Clock::now();
      for (std::int64_t i = half; i < post_rounds; ++i) {
        process->step();
        checksum += process->snapshot().active;
      }
      const double post_secs = seconds_since(post_start);
      const double tail_secs = seconds_since(tail_start);
      const double ns_per_round = post_secs * 1e9 / static_cast<double>(post_rounds);
      const double tail_ns_per_round =
          post_rounds > half
              ? tail_secs * 1e9 / static_cast<double>(post_rounds - half)
              : ns_per_round;
      table.begin_row();
      table.add_cell("post-stabilization stepping");
      table.add_cell(post_secs, 3);
      table.add_cell("-");
      table.add_cell(mb(peak_rss_bytes()), 1);
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "%lld rounds, %.1f ns/round (steady-state half %.1f, "
                    "checksum %lld)",
                    static_cast<long long>(post_rounds), ns_per_round,
                    tail_ns_per_round, static_cast<long long>(checksum));
      table.add_cell(detail);
    }
    table.print(std::cout);
  }

  bench::finish_experiment(
      "pipeline (generate -> save -> mmap -> stabilize) completed within the "
      "streaming memory budget");
  return 0;
}
