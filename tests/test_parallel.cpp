// Determinism regression tests for the parallel trial runtime.
//
// The contract under test (docs/architecture.md, "Parallel runtime"):
// batched trial scheduling is a pure throughput knob — Measurements and
// every per-trial artifact are bit-identical at any thread count. The
// phase clock's own fan-out is pinned in test_phase_clock.cpp.
//
// The thread counts exercised include values above the host's core count
// (oversubscription must not change results either) and can be raised via
// the SSMIS_TEST_THREADS environment variable — the CI ThreadSanitizer job
// runs this suite with SSMIS_TEST_THREADS=4 to race-check the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/trial_batch.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {
namespace {

int env_threads() {
  const char* s = std::getenv("SSMIS_TEST_THREADS");
  if (s == nullptr) return 8;
  const int v = std::atoi(s);
  return v >= 1 ? v : 8;
}

// --- harness: batched trial scheduling ------------------------------------

void expect_measurements_equal(const Measurements& a, const Measurements& b,
                               const char* label) {
  EXPECT_EQ(a.stabilization_rounds, b.stabilization_rounds) << label;
  EXPECT_EQ(a.timeout_seeds, b.timeout_seeds) << label;
  EXPECT_EQ(a.timeouts, b.timeouts) << label;
  EXPECT_EQ(a.summary.count, b.summary.count) << label;
  EXPECT_EQ(a.summary.mean, b.summary.mean) << label;
  EXPECT_EQ(a.summary.p95, b.summary.p95) << label;
}

TEST(TrialBatchScheduling, MeasurementsIdenticalAcrossThreadCounts) {
  const Graph g = gen::gnp(256, 0.03, 5);
  for (const char* protocol : {"2state", "3state", "3color"}) {
    MeasureConfig config;
    config.protocol = protocol;
    config.trials = 12;
    config.seed = 100;
    config.max_rounds = 100000;
    const Measurements seq = measure_stabilization(g, config);
    for (int threads : {2, env_threads()}) {
      config.threads = threads;
      expect_measurements_equal(seq, measure_stabilization(g, config),
                                "batched");
    }
  }
}

TEST(TrialBatchScheduling, TimeoutSeedsReportedPerTrial) {
  // K_2 from all-black with a 0-round horizon: every trial times out, so
  // the timeout seeds must be exactly seed..seed+trials-1 in order.
  const Graph g = gen::complete(2);
  MeasureConfig config;
  config.init = InitPattern::kAllBlack;
  config.trials = 5;
  config.seed = 40;
  config.max_rounds = 0;
  for (int threads : {1, env_threads()}) {
    config.threads = threads;
    const Measurements m = measure_stabilization(g, config);
    EXPECT_EQ(m.timeouts, 5);
    EXPECT_EQ(m.timeout_seeds,
              (std::vector<std::uint64_t>{40, 41, 42, 43, 44}));
    EXPECT_TRUE(m.stabilization_rounds.empty());
  }
}

TEST(TrialBatchScheduling, VertexTimesBatchMatchesSequentialPerSeed) {
  const Graph g = gen::gnp(200, 0.04, 3);
  MeasureConfig config;
  config.trials = 6;
  config.seed = 55;
  config.max_rounds = 100000;
  config.threads = env_threads();
  const auto batched = vertex_stabilization_times_batch(g, config);
  ASSERT_EQ(batched.size(), 6u);
  for (int trial = 0; trial < 6; ++trial) {
    MeasureConfig one = config;
    one.threads = 1;
    one.seed = trial_seed(config, trial);
    EXPECT_EQ(batched[static_cast<std::size_t>(trial)],
              vertex_stabilization_times(g, one))
        << "trial " << trial;
  }
}

// --- the pool itself -------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool& pool = ThreadPool::shared();
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(257, env_threads(),
                    [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<int> total{0};
  pool.parallel_for(4, env_threads(), [&](int) {
    // Nested fan-out must degrade to an inline loop, not deadlock.
    pool.parallel_for(8, env_threads(), [&](int) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ExceptionsPropagateToSubmitter) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_THROW(pool.parallel_for(16, env_threads(),
                                 [](int i) {
                                   if (i == 7)
                                     throw std::runtime_error("trial failed");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(8, env_threads(), [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(TrialBatch, MapPreservesTrialOrder) {
  const TrialBatch batch(100, env_threads());
  const auto out = batch.map<int>([](int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

}  // namespace
}  // namespace ssmis
