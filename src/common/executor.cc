#include "common/executor.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace lstore {

size_t Executor::Every(uint64_t period_ms, std::function<void()> fn) {
  size_t id;
  {
    std::lock_guard<std::mutex> g(mu_);
    id = timers_.size();
    if (stop_) return id;
    timers_.push_back(Timer{std::max<uint64_t>(period_ms, 1) * 1000000,
                            now_(), std::move(fn)});
    if (!thread_.joinable()) thread_ = std::thread([this] { Loop(); });
  }
  cv_.notify_all();
  return id;
}

void Executor::Restart(size_t id) {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (id < timers_.size()) timers_[id].last_ns = now_();
  }
  cv_.notify_all();
}

void Executor::RunDue() {
  std::lock_guard<std::mutex> run(run_mu_);
  std::vector<Timer*> due;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (stop_) return;
    const uint64_t now = now_();
    for (Timer& t : timers_) {
      if (now < t.last_ns) t.last_ns = now;
      if (now - t.last_ns >= t.period_ns) {
        t.last_ns = now;
        due.push_back(&t);
      }
    }
  }
  for (Timer* t : due) t->fn();
}

void Executor::Loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    // Sleep until the nearest deadline, but at most one period: a
    // swapped clock moves the deadlines.
    const uint64_t now = now_();
    uint64_t wait_ns = UINT64_MAX;
    for (const Timer& t : timers_) {
      uint64_t elapsed = now > t.last_ns ? now - t.last_ns : 0;
      wait_ns = std::min(wait_ns, t.period_ns - std::min(elapsed, t.period_ns));
    }
    if (wait_ns > 0) {
      cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
      continue;
    }
    lk.unlock();
    RunDue();
    lk.lock();
  }
}

void Executor::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace lstore
