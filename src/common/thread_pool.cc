#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace lstore {

ThreadPool::ThreadPool(uint32_t threads) {
  workers_.reserve(threads);
  for (uint32_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { RunWorker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::Joinable(const Job& job) {
  return job.next.load(std::memory_order_relaxed) < job.num_tasks &&
         (job.max_workers == 0 ||
          job.executors.load(std::memory_order_relaxed) < job.max_workers);
}

void ThreadPool::Execute(const std::shared_ptr<Job>& job) {
  uint64_t t;
  while ((t = job->next.fetch_add(1, std::memory_order_relaxed)) <
         job->num_tasks) {
    job->fn(t);
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job->num_tasks) {
      std::lock_guard<std::mutex> g(job->mu);
      job->cv.notify_all();
    }
  }
}

void ThreadPool::RunWorker() {
  for (;;) {
    std::shared_ptr<Job> job;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> g(mu_);
      cv_.wait(g, [this, &job] {
        if (stop_ || !tasks_.empty()) return true;
        // Drop fully-claimed jobs from the front, then join the first
        // job still accepting executors.
        while (!jobs_.empty() &&
               jobs_.front()->next.load(std::memory_order_relaxed) >=
                   jobs_.front()->num_tasks) {
          jobs_.pop_front();
        }
        for (const auto& j : jobs_) {
          if (Joinable(*j)) {
            job = j;
            return true;
          }
        }
        return false;
      });
      if (stop_) return;
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else {
        job->executors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (task) {
      task();
      continue;
    }
    Execute(job);
    job->executors.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(mu_);
    tasks_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(uint64_t num_tasks, uint32_t max_workers,
                             const std::function<void(uint64_t)>& fn) {
  if (num_tasks == 0) return;
  if (num_tasks == 1 || max_workers == 1 || workers_.empty()) {
    for (uint64_t t = 0; t < num_tasks; ++t) fn(t);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->num_tasks = num_tasks;
  job->max_workers = max_workers;
  // The caller participates (progress is guaranteed even when every
  // pool thread is parked on another job) and counts toward the
  // executor cap, so it claims its slot BEFORE the job is published.
  job->executors.store(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(mu_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  Execute(job);
  job->executors.fetch_sub(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> g(job->mu);
    job->cv.wait(g, [&] {
      return job->done.load(std::memory_order_acquire) == job->num_tasks;
    });
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    uint32_t n = std::thread::hardware_concurrency();
    long workers = n > 1 ? n - 1 : 1;
    if (const char* env = std::getenv("LSTORE_SCAN_THREADS")) {
      workers = std::atol(env);
    }
    return new ThreadPool(static_cast<uint32_t>(std::max(workers, 1L)));
  }();
  return *pool;
}

// ---------------------------------------------------------------------------
// SerialQueue
// ---------------------------------------------------------------------------

void SerialQueue::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(s_->mu);
    if (s_->stopped) return;
    s_->tasks.push_back(std::move(fn));
    if (s_->scheduled) return;
    s_->scheduled = true;
  }
  // Outside the lock: the woken pool thread's RunFront takes it first.
  s_->pool.Post([s = s_] { RunFront(s); });
}

void SerialQueue::RunFront(const std::shared_ptr<State>& s) {
  std::unique_lock<std::mutex> lk(s->mu);
  if (!s->tasks.empty()) {
    std::function<void()> fn = std::move(s->tasks.front());
    s->tasks.pop_front();
    s->running = true;
    lk.unlock();
    fn();
    fn = nullptr;  // what it captured goes before Stop may return
    lk.lock();
    s->running = false;
  }
  if (s->tasks.empty()) {
    s->scheduled = false;
  } else {
    s->pool.Post([s] { RunFront(s); });
  }
  s->cv.notify_all();
}

void SerialQueue::Drain() {
  std::unique_lock<std::mutex> lk(s_->mu);
  s_->cv.wait(lk, [this] { return !s_->scheduled; });
}

void SerialQueue::Stop() {
  std::unique_lock<std::mutex> lk(s_->mu);
  s_->stopped = true;
  s_->tasks.clear();
  s_->cv.wait(lk, [this] { return !s_->running; });
}

}  // namespace lstore
