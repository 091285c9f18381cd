#include "obs/reporter.h"

#include <chrono>

#include "obs/event_log.h"

namespace lstore {

StatsReporter::StatsReporter(std::string path, uint64_t interval_ms,
                             std::function<MetricsSnapshot()> snapshot_fn,
                             std::shared_ptr<Heartbeat> hb)
    : path_(std::move(path)),
      interval_ms_(interval_ms == 0 ? 1 : interval_ms),
      snapshot_fn_(std::move(snapshot_fn)),
      hb_(std::move(hb)) {
  thread_ = std::thread(&StatsReporter::Loop, this);
}

void StatsReporter::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StatsReporter::Loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) break;
    lk.unlock();
    {
      HeartbeatWorkScope work(hb_.get());
      WriteLine();
    }
    lk.lock();
  }
  lk.unlock();
  // One final line so short-lived runs still leave a record.
  WriteLine();
}

void StatsReporter::WriteLine() {
  std::string line = snapshot_fn_().RenderJson();
  line.push_back('\n');
  AppendLineRotated(path_, /*max_bytes=*/0, line);
}

}  // namespace lstore
