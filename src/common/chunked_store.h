// Append-only version store shared by the engines that keep their own
// version records outside L-Store's tail pages: L-Store (Row)'s
// per-range tail versions, In-place Update + History's table-wide
// history, and Delta + Blocking Merge's per-range delta.
//
// Records are fixed-stride rows of atomic Values, addressed by a
// 1-based index (0 is the "none" link). Readers index the store
// without a latch, so its storage never moves: a fixed directory of
// atomically published chunk pointers, each chunk allocated once by
// the first reserver that needs it. (A growable vector of chunks would
// reallocate its backing array under a concurrent reader.) The
// directory itself is allocated on the first reservation, so a store
// that never receives a record costs one pointer.

#ifndef LSTORE_COMMON_CHUNKED_STORE_H_
#define LSTORE_COMMON_CHUNKED_STORE_H_

#include <atomic>
#include <cstdint>

#include "common/latch.h"
#include "common/types.h"

namespace lstore {

class ChunkedStore {
 public:
  /// Capacity is chunk_rows * max_chunks records of `stride` Values.
  ChunkedStore(uint32_t stride, uint32_t chunk_rows, uint32_t max_chunks)
      : stride_(stride), chunk_rows_(chunk_rows), max_chunks_(max_chunks) {}
  ~ChunkedStore() {
    Clear();
    delete[] dir_.load(std::memory_order_relaxed);
  }

  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;

  /// Reserve the next record and make sure its chunk exists. Returns
  /// its index (>= 1), or 0 when the store is full. Every field of a
  /// fresh record reads kNull. A record becomes reachable only through
  /// a link its writer publishes after this returns, so readers never
  /// meet a missing directory or chunk.
  uint64_t Reserve() {
    uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t chunk = (idx - 1) / chunk_rows_;
    if (chunk >= max_chunks_) return 0;
    Chunk* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr ||
        dir[chunk].load(std::memory_order_acquire) == nullptr) {
      SpinGuard g(grow_latch_);
      dir = dir_.load(std::memory_order_relaxed);
      if (dir == nullptr) {
        dir = new Chunk[max_chunks_];
        for (uint32_t i = 0; i < max_chunks_; ++i) {
          dir[i].store(nullptr, std::memory_order_relaxed);
        }
        dir_.store(dir, std::memory_order_release);
      }
      if (dir[chunk].load(std::memory_order_relaxed) == nullptr) {
        const size_t n = static_cast<size_t>(chunk_rows_) * stride_;
        auto* fresh = new std::atomic<Value>[n];
        for (size_t i = 0; i < n; ++i) {
          fresh[i].store(kNull, std::memory_order_relaxed);
        }
        dir[chunk].store(fresh, std::memory_order_release);
      }
    }
    return idx;
  }

  /// Field `field` of record `idx` (a reserved, published index).
  std::atomic<Value>* Slot(uint64_t idx, uint32_t field) const {
    uint64_t i = idx - 1;
    Chunk* dir = dir_.load(std::memory_order_acquire);
    return &dir[i / chunk_rows_].load(std::memory_order_acquire)
                [(i % chunk_rows_) * stride_ + field];
  }

  /// Records reserved so far (capped at capacity: reservations past a
  /// full store hold no record).
  uint64_t size() const {
    uint64_t n = next_.load(std::memory_order_acquire);
    uint64_t cap = static_cast<uint64_t>(chunk_rows_) * max_chunks_;
    return n < cap ? n : cap;
  }

  /// Drop every record and restart indexing at 1. The caller must
  /// exclude every reader and writer (the blocking merge runs with all
  /// transactions drained).
  void Clear() {
    Chunk* dir = dir_.load(std::memory_order_relaxed);
    if (dir != nullptr) {
      for (uint32_t i = 0; i < max_chunks_; ++i) {
        delete[] dir[i].load(std::memory_order_relaxed);
        dir[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    next_.store(0, std::memory_order_release);
  }

 private:
  using Chunk = std::atomic<std::atomic<Value>*>;

  const uint32_t stride_;
  const uint32_t chunk_rows_;
  const uint32_t max_chunks_;
  std::atomic<uint64_t> next_{0};
  SpinLatch grow_latch_;
  std::atomic<Chunk*> dir_{nullptr};
};

}  // namespace lstore

#endif  // LSTORE_COMMON_CHUNKED_STORE_H_
