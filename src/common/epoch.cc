#include "common/epoch.h"

namespace lstore {

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // Free everything that is still pending; no readers can remain.
  DrainAllUnsafe();
}

size_t EpochManager::DrainAllUnsafe() {
  // Swap out and run outside the lock (see TryReclaim); loop in case
  // a deleter retires further resources.
  std::lock_guard<std::mutex> run(run_mu_);
  size_t n = 0;
  for (;;) {
    std::deque<Retired> ready;
    {
      std::lock_guard<std::mutex> g(retired_mu_);
      if (retired_.empty()) return n;
      ready.swap(retired_);
    }
    n += ready.size();
    for (auto& r : ready) r.deleter();
  }
}

namespace {

// Publishing a pin requires the classic EBR double-check: a pin read
// BEFORE it is visible to reclaimers is worthless — a Retire +
// TryReclaim pair can slip between reading the epoch and storing the
// pin, freeing a resource this reader is about to dereference. After
// publishing, re-read the epoch and advance the pin until it is
// stable: once stable, (a) entries retired at older epochs were
// retired by threads whose epoch increment we have synchronized with,
// so we can only reach their replacements, and (b) entries retired at
// our epoch or later observe our pin and stay blocked.
void PinSlot(std::atomic<uint64_t>& slot, std::atomic<uint64_t>& epoch) {
  for (;;) {
    uint64_t e = epoch.load(std::memory_order_acquire);
    if (slot.load(std::memory_order_relaxed) == e) return;
    slot.store(e, std::memory_order_seq_cst);
  }
}

}  // namespace

int EpochManager::Enter() {
  int start = next_slot_hint_.fetch_add(1, std::memory_order_relaxed) %
              kMaxThreads;
  for (int i = 0; i < kMaxThreads; ++i) {
    int s = (start + i) % kMaxThreads;
    uint64_t expected = kIdle;
    if (slots_[s].pinned.compare_exchange_strong(
            expected, epoch_.load(std::memory_order_acquire),
            std::memory_order_seq_cst)) {
      PinSlot(slots_[s].pinned, epoch_);
      return s;
    }
  }
  // All slots busy: extremely unlikely (kMaxThreads concurrent
  // queries). Spin until one frees up.
  for (;;) {
    for (int s = 0; s < kMaxThreads; ++s) {
      uint64_t expected = kIdle;
      if (slots_[s].pinned.compare_exchange_strong(
              expected, epoch_.load(std::memory_order_acquire),
              std::memory_order_seq_cst)) {
        PinSlot(slots_[s].pinned, epoch_);
        return s;
      }
    }
  }
}

void EpochManager::Exit(int slot) {
  slots_[slot].pinned.store(kIdle, std::memory_order_release);
}

void EpochManager::Retire(std::function<void()> deleter) {
  // Advance the epoch so that queries starting after this retire do
  // not block reclamation of the retired resource.
  uint64_t e = epoch_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> g(retired_mu_);
  retired_.push_back(Retired{e, std::move(deleter)});
}

uint64_t EpochManager::MinActiveEpoch() const {
  uint64_t min = kIdle;
  for (const auto& s : slots_) {
    // seq_cst pairs with the seq_cst pin publication in Enter(): the
    // reclaimer must never miss a pin that was published before the
    // pinning thread dereferenced anything.
    uint64_t v = s.pinned.load(std::memory_order_seq_cst);
    if (v < min) min = v;
  }
  return min;
}

size_t EpochManager::TryReclaim() {
  std::lock_guard<std::mutex> run(run_mu_);
  uint64_t min_active = MinActiveEpoch();
  // Collect under the lock, run outside it: deleters may take foreign
  // locks (e.g. a segment page unregistering from the buffer pool,
  // whose eviction path itself calls Retire) — running them under
  // retired_mu_ would invert that order and deadlock.
  std::deque<Retired> ready;
  {
    std::lock_guard<std::mutex> g(retired_mu_);
    while (!retired_.empty() && retired_.front().epoch < min_active) {
      ready.push_back(std::move(retired_.front()));
      retired_.pop_front();
    }
  }
  for (auto& r : ready) r.deleter();
  return ready.size();
}

size_t EpochManager::pending() const {
  std::lock_guard<std::mutex> g(retired_mu_);
  return retired_.size();
}

}  // namespace lstore
