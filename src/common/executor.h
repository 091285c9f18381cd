// One background executor per database: a timer list on one thread.
//
// The periodic actors of a durable Database are timers: the checkpoint
// trigger, the watchdog sweep and the stats reporter each run
// `Every(period_ms, fn)` on the executor's one timer thread. A timer
// that finds work due (a checkpoint, a metrics.log line) posts it to a
// SerialQueue on the shared pool (common/thread_pool.h) rather than
// running it, so only cheap work runs on the timer thread: the
// watchdog sweep keeps running, and sees the posted work stall.
// Deadlines read an injected clock (the database's
// HealthRegistry::NowNs), so one SetClockForTest drives heartbeats and
// timers alike, and RunDue() fires due timers on the caller's thread:
// tests step the clock with no sleeps.

#ifndef LSTORE_COMMON_EXECUTOR_H_
#define LSTORE_COMMON_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace lstore {

class Executor {
 public:
  /// Monotonic nanoseconds.
  using Clock = std::function<uint64_t()>;

  explicit Executor(Clock now) : now_(std::move(now)) {}
  ~Executor() { Stop(); }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run `fn` on the timer thread once every `period_ms` milliseconds
  /// of the clock, first one period from now. The first timer starts
  /// the thread; a stopped executor ignores the call. Returns the
  /// timer's id for Restart.
  size_t Every(uint64_t period_ms, std::function<void()> fn);

  /// Count timer `id`'s period from now: work it posted has just
  /// finished, and the next run is due one full period later.
  void Restart(size_t id);

  /// Fire each timer whose period has elapsed, once however far the
  /// clock moved, on the calling thread; passes serialize with the
  /// timer thread's. A clock that stepped back (a test swapping in a
  /// fake clock) re-arms every timer from its new reading.
  void RunDue();

  /// Join the timer thread; nothing fires afterwards. Idempotent.
  void Stop();

 private:
  struct Timer {
    uint64_t period_ns;
    uint64_t last_ns;  ///< the clock when it last fired or was armed
    std::function<void()> fn;
  };

  void Loop();

  const Clock now_;
  std::mutex run_mu_;  ///< serializes RunDue passes
  std::mutex mu_;      ///< guards timers_ and stop_
  std::condition_variable cv_;
  std::deque<Timer> timers_;  ///< a deque: fired timers stay put
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_EXECUTOR_H_
