// Worker pools: parallel snapshot scans (Section 6.2: the scan
// workload partitions naturally along update-range boundaries), the
// engine's background tasks (merges, checkpoints) and served requests.
//
// One process-wide pool is shared by every Query and every table, so
// concurrent analytical queries and background work multiplex a
// bounded set of threads instead of each spawning its own. A Server
// owns one more pool instance, sized by ServerConfig::workers, on
// which its sessions' requests run; a SerialQueue names the pool it
// posts to. The submitting thread always participates in its own
// ParallelFor job, so a scan makes progress even when every pool
// thread is busy (or the pool has size 0). Posted tasks run on pool
// threads only.

#ifndef LSTORE_COMMON_THREAD_POOL_H_
#define LSTORE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lstore {

class ThreadPool {
 public:
  /// A pool of `threads` workers (0 = no worker threads; ParallelFor
  /// then runs entirely on the calling thread).
  explicit ThreadPool(uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(task) for every task in [0, num_tasks), using at most
  /// `max_workers` concurrent executors (caller included; 0 = no cap).
  /// Blocks until every task finished. Tasks are claimed dynamically
  /// from a shared counter, so skewed task costs balance out.
  void ParallelFor(uint64_t num_tasks, uint32_t max_workers,
                   const std::function<void(uint64_t task)>& fn);

  /// Run `fn` once on a pool thread; nobody waits for it. Tasks start
  /// in FIFO order, ahead of scan jobs. A task never waits for another
  /// posted task (the pool may have one thread).
  void Post(std::function<void()> fn);

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Process-wide pool, lazily constructed with hardware_concurrency-1
  /// workers (LSTORE_SCAN_THREADS overrides), at least one, so posted
  /// work never runs on a writer's thread.
  static ThreadPool& Shared();

 private:
  struct Job {
    std::function<void(uint64_t)> fn;
    uint64_t num_tasks = 0;
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    std::atomic<uint32_t> executors{0};
    uint32_t max_workers = 0;
    std::mutex mu;
    std::condition_variable cv;  // signalled when done == num_tasks
  };

  /// Claim and run tasks of `job` until none remain.
  static void Execute(const std::shared_ptr<Job>& job);
  /// Whether the job still has unclaimed tasks and executor headroom.
  static bool Joinable(const Job& job);

  void RunWorker();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;  ///< jobs accepting executors
  std::deque<std::function<void()>> tasks_;  ///< posted, not yet started
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// A FIFO of tasks on one pool that runs at most one at a time: a
/// table's merges, a database's checkpoints and reporter lines (on the
/// shared pool), a server session's requests (on the server's pool).
/// Each task is posted to the pool on its own, so queues on one pool
/// interleave round-robin. The pool task holds the queue's state, not
/// the queue, so Stop waits only for a task already running, never for
/// a pool thread to become free.
class SerialQueue {
 public:
  /// Tasks run on `pool`, which must outlive every call to Post.
  explicit SerialQueue(ThreadPool& pool = ThreadPool::Shared())
      : s_(std::make_shared<State>(pool)) {}
  ~SerialQueue() { Stop(); }

  SerialQueue(const SerialQueue&) = delete;
  SerialQueue& operator=(const SerialQueue&) = delete;

  /// Append `fn`; ignored once stopped.
  void Post(std::function<void()> fn);
  /// Block until the queue is empty and no task runs. Never from a
  /// posted task.
  void Drain();
  /// Drop the pending tasks, refuse new ones, and wait for the running
  /// one: afterwards no task touches what it captured. Idempotent.
  void Stop();

 private:
  struct State {
    explicit State(ThreadPool& p) : pool(p) {}
    ThreadPool& pool;
    std::mutex mu;
    std::condition_variable cv;  ///< signalled when `running` or `scheduled` clears
    std::deque<std::function<void()>> tasks;
    bool scheduled = false;  ///< a RunFront is posted or running
    bool running = false;    ///< a task is inside its body
    bool stopped = false;
  };

  /// Pool task: run the front task, then hand the next to the pool.
  static void RunFront(const std::shared_ptr<State>& s);

  const std::shared_ptr<State> s_;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_THREAD_POOL_H_
