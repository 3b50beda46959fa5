// A small persistent worker pool shared by the whole parallel runtime:
// batched trial scheduling (harness/trial_batch.hpp) and the phase-clock
// round (core/phase_clock.hpp) both fan out through this one pool, so
// threads are spawned once per process, not once per round or per
// experiment cell.
//
// Determinism contract: `parallel_for` addresses work by index. Callers
// write results into per-index slots and merge them in index order, so what
// is computed — and every merged artifact — is independent of the worker
// count and of scheduling interleavings. The pool only decides *when* an
// index runs, never *what* the index computes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ssmis {

class ThreadPool {
 public:
  // Workers beyond this are never spawned (guards against --threads typos).
  static constexpr int kMaxWorkers = 64;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool. Starts with zero workers and grows on demand
  // inside parallel_for; it is never shrunk.
  static ThreadPool& shared();

  // The host's hardware thread count clamped to [1, kMaxWorkers] (the
  // standard library may report 0 when it cannot tell). The one place the
  // runtime reads the host width; callers may size fan-out with it, never
  // what an index computes.
  static int host_width();

  int num_workers() const;

  // Runs body(i) for every i in [0, tasks), using at most `concurrency`
  // threads in total (the calling thread participates and takes tasks too,
  // so short tasks never leave it idle). Indices are handed out one at a
  // time from a shared counter — a cheap task cannot stall behind an
  // expensive one assigned to the same worker. Blocks until every task
  // finished; rethrows the first exception a task threw (remaining tasks
  // are skipped once an exception is recorded).
  //
  // Calls made from inside a pool task run inline on the calling thread:
  // nested fan-out (a batched 3color trial whose phase clock also wants the
  // pool) degrades to sequential instead of deadlocking or oversubscribing.
  void parallel_for(int tasks, int concurrency,
                    const std::function<void(int)>& body);

 private:
  // One fan-out. Each job owns its counters and a copy of the body, so a
  // worker that wakes late (after the job drained and a new one started)
  // still holds a self-consistent job: it sees `next >= tasks` and exits
  // without ever touching another job's counters.
  struct Job {
    std::function<void(int)> body;
    int tasks = 0;
    std::atomic<int> next{0};
    std::atomic<int> remaining{0};
    std::atomic<bool> has_error{false};
    std::exception_ptr error;  // guarded by the pool's mu_
  };

  // Grows the pool to at least min(n, kMaxWorkers) workers.
  void ensure_workers(int n);
  void worker_loop();
  void run_tasks(Job& job);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a job with free slots exists
  std::condition_variable done_cv_;  // submitter: all tasks of its job done
  std::vector<std::thread> workers_;
  bool shutdown_ = false;

  std::mutex submit_mu_;  // serializes top-level parallel_for calls
  std::shared_ptr<Job> job_;  // current job, null when idle (guarded by mu_)
  int job_slots_ = 0;         // worker-participation budget for job_
};

}  // namespace ssmis
