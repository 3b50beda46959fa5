#include "support/thread_pool.hpp"

#include <algorithm>

#include "support/narrow.hpp"

namespace ssmis {

namespace {

// Set while the current thread is executing a pool task (worker or
// participating submitter): nested parallel_for calls run inline.
thread_local bool tl_in_pool_task = false;

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::host_width() {
  static const int width = std::clamp(
      narrow_cast<int>(std::thread::hardware_concurrency()), 1, kMaxWorkers);
  return width;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::ensure_workers(int n) {
  n = std::min(n, kMaxWorkers);
  std::lock_guard<std::mutex> lk(mu_);
  while (narrow_cast<int>(workers_.size()) < n)
    workers_.emplace_back([this] { worker_loop(); });
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return narrow_cast<int>(workers_.size());
}

// Shared inner loop: pop indices until the job is drained. Each index is
// claimed by exactly one thread and `remaining` is decremented exactly once
// per index, so completion detection is exact.
void ThreadPool::run_tasks(Job& job) {
  const bool was_in_task = tl_in_pool_task;
  tl_in_pool_task = true;
  for (;;) {
    const int i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.tasks) break;
    if (!job.has_error.load(std::memory_order_acquire)) {
      try {
        job.body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!job.error) job.error = std::current_exception();
        job.has_error.store(true, std::memory_order_release);
      }
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  tl_in_pool_task = was_in_task;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] {
        return shutdown_ || (job_ != nullptr && job_slots_ > 0);
      });
      if (shutdown_) return;
      --job_slots_;  // claim a participation slot for this job
      job = job_;
    }
    run_tasks(*job);
  }
}

void ThreadPool::parallel_for(int tasks, int concurrency,
                              const std::function<void(int)>& body) {
  if (tasks <= 0) return;
  if (tasks == 1 || concurrency <= 1 || tl_in_pool_task) {
    for (int i = 0; i < tasks; ++i) body(i);
    return;
  }
  ensure_workers(std::min(concurrency - 1, tasks - 1));
  std::lock_guard<std::mutex> submit_lk(submit_mu_);
  auto job = std::make_shared<Job>();
  job->body = body;
  job->tasks = tasks;
  job->next.store(0, std::memory_order_relaxed);
  job->remaining.store(tasks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    job_slots_ = std::min({concurrency - 1, tasks - 1,
                           narrow_cast<int>(workers_.size())});
  }
  work_cv_.notify_all();
  run_tasks(*job);  // the submitter works too
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&job] {
      return job->remaining.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
    job_slots_ = 0;
    err = job->error;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ssmis
