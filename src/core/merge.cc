// The background merge manager of Figure 5. The merges it runs are the
// range's own (Range::InsertMerge and Range::UpdateMerge, Algorithm 1).

#include "core/merge.h"

#include <chrono>
#include <memory>
#include <thread>

#include "core/table.h"
#include "obs/health.h"

namespace lstore {

// ---------------------------------------------------------------------------
// MergeManager
// ---------------------------------------------------------------------------

MergeManager::MergeManager(Table* table) : table_(table) {}

MergeManager::~MergeManager() { Stop(); }

void MergeManager::Start() {
  std::lock_guard<std::mutex> g(mu_);
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this] { Loop(); });
}

void MergeManager::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void MergeManager::Enqueue(uint64_t range_id) {
  {
    std::lock_guard<std::mutex> g(mu_);
    queue_.push_back(range_id);
  }
  cv_.notify_one();
}

void MergeManager::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
}

void MergeManager::Loop() {
  // Busy-scoped heartbeat "merge:<table>": an idle merge thread parked
  // on cv_.wait is healthy by definition; only time spent inside a
  // claimed task counts against the slow/stall deadlines. Held as a
  // local shared_ptr so exiting the loop unregisters the actor.
  std::shared_ptr<Heartbeat> hb;
  if (table_->config().health != nullptr) {
    hb = table_->config().health->Register("merge:" + table_->name());
  }
  for (;;) {
    uint64_t range_id;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return !running_ || !queue_.empty(); });
      if (!running_ && queue_.empty()) return;
      range_id = queue_.front();
      queue_.pop_front();
      busy_ = true;
    }
    HeartbeatWorkScope work(hb.get());

    // Test hook: park here — after claiming a task (busy, not beating)
    // — so health tests can simulate a stalled merge deterministically.
    if (std::atomic<int>* park = table_->config().merge_test_park;
        park != nullptr && park->load(std::memory_order_acquire) != 0) {
      park->store(2, std::memory_order_release);  // ack: parked
      while (park->load(std::memory_order_acquire) != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }

    if (hb != nullptr) hb->Beat();  // progress: the merge itself starts
    if (Range* r = table_->GetRange(range_id)) {
      // Allow re-enqueueing while we work so no trigger is lost.
      r->ReleaseMergeTrigger();
      r->InsertMerge();
      r->UpdateMerge(table_->schema().AllColumns(), true);
    }
    table_->epochs().TryReclaim();

    {
      std::lock_guard<std::mutex> g(mu_);
      busy_ = false;
      ++tasks_processed_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace lstore
