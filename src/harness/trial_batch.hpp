// Deterministic batched trial scheduler: the parallel runtime's fan-out
// across trials (the other is the 3-color phase clock's fan-out within one
// trial, core/phase_clock.hpp).
//
// An experiment cell is `trials` independent executions over one shared
// immutable Graph. TrialBatch hands out trial indices one at a time from a
// shared counter, so short trials never leave workers idle behind long
// ones, and trials interleave freely across the pool. Determinism comes
// from addressing, not ordering:
//
//   * the seed-assignment contract: trial i of a cell with base seed s uses
//     seed s + i, a function of the index alone — never of which worker ran
//     it, in what order, or how many threads exist;
//   * results land in per-trial slots and are reduced in index order.
//
// Hence Measurements (and any per-trial artifact) are bit-identical for any
// thread count, including 1.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/thread_pool.hpp"

namespace ssmis {

class TrialBatch {
 public:
  // threads <= 1 runs trials in index order on the calling thread.
  TrialBatch(int trials, int threads)
      : trials_(trials < 0 ? 0 : trials), threads_(threads < 1 ? 1 : threads) {}

  int trials() const { return trials_; }
  int threads() const { return threads_; }

  // Runs body(trial) for every trial in [0, trials). `body` must be
  // thread-safe across distinct trials (shared inputs read-only, outputs in
  // per-trial slots) and must derive all randomness from the trial index.
  // The first exception thrown by any trial is rethrown here.
  template <typename Body>
  void run(Body&& body) const {
    if (threads_ <= 1) {
      for (int i = 0; i < trials_; ++i) body(i);
      return;
    }
    const std::function<void(int)> fn = std::forward<Body>(body);
    ThreadPool::shared().parallel_for(trials_, threads_, fn);
  }

  // Convenience: materializes body(trial) into a vector in trial order.
  // T must be default-constructible and movable — and not bool, whose
  // bit-packed vector would make concurrent slot writes race on shared
  // bytes (use char for pass/fail tables).
  template <typename T, typename Body>
  std::vector<T> map(Body&& body) const {
    static_assert(!std::is_same_v<T, bool>,
                  "TrialBatch::map<bool> would race on vector<bool>'s packed "
                  "bits; map<char> instead");
    std::vector<T> out(static_cast<std::size_t>(trials_));
    run([&](int i) { out[static_cast<std::size_t>(i)] = body(i); });
    return out;
  }

 private:
  int trials_;
  int threads_;
};

}  // namespace ssmis
