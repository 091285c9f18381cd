// A test-only pause inside a data sync. Include this header in ONE
// source file of a test binary: it defines fdatasync, which
// File::SyncData calls, so the binary's calls reach it before the C
// library's. While a SyncPause is armed, the first data sync to start
// parks before its system call until the test releases it. The redo
// log's sync-token holder has written its buffer by then, so the pause
// sits between the holder's write and its sync, with mu_ released.

#ifndef LSTORE_TESTS_SYNC_PAUSE_H_
#define LSTORE_TESTS_SYNC_PAUSE_H_

#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace lstore {
namespace test {

/// Arms the pause for its lifetime: the first data sync after
/// construction parks until Release() or destruction. One at a time.
class SyncPause {
 public:
  SyncPause() {
    std::lock_guard<std::mutex> g(state().mu);
    ++state().gen;
    state().armed = true;
    state().parked = false;
  }
  ~SyncPause() { Release(); }
  SyncPause(const SyncPause&) = delete;
  SyncPause& operator=(const SyncPause&) = delete;

  /// True once a data sync has parked (false after `timeout`).
  bool WaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(state().mu);
    return state().cv.wait_for(lk, timeout, [] { return state().parked; });
  }

  /// Let the parked sync (if any) go on; later syncs do not park.
  void Release() {
    {
      std::lock_guard<std::mutex> g(state().mu);
      state().armed = false;
    }
    state().cv.notify_all();
  }

  /// Called by the interposed fdatasync: parks the first sync of an
  /// armed pause until it is released (or another pause is armed).
  static void Park() {
    std::unique_lock<std::mutex> lk(state().mu);
    if (!state().armed || state().parked) return;
    state().parked = true;
    const uint64_t gen = state().gen;
    state().cv.notify_all();
    state().cv.wait(lk, [gen] { return !state().armed || state().gen != gen; });
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t gen = 0;     ///< pauses armed so far
    bool armed = false;   ///< a pause is armed and not yet released
    bool parked = false;  ///< a sync of the current pause has parked
  };
  static State& state() {
    static State s;
    return s;
  }
};

/// Poll `done` until it holds or `timeout` passes; returns its last value.
inline bool WaitUntil(const std::function<bool()>& done,
                      std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace test
}  // namespace lstore

extern "C" int fdatasync(int fd) {
  lstore::test::SyncPause::Park();
  return static_cast<int>(::syscall(SYS_fdatasync, fd));
}

#endif  // LSTORE_TESTS_SYNC_PAUSE_H_
