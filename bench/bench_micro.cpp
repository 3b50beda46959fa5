// M1: google-benchmark micro-benchmarks of the simulation substrate (step
// cost of each process, generator throughput, verifier cost) — the numbers
// that bound how large the reproduction sweeps can go. The repository's
// end-to-end benchmark is perfbench/ (BENCHMARK.json).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/init.hpp"
#include "core/runner.hpp"
#include "core/three_color.hpp"
#include "core/three_state.hpp"
#include "core/two_state.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "rng/coin_oracle.hpp"

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
    benchmark::DoNotOptimize(p.snapshot());
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

}  // namespace
}  // namespace ssmis

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
