// Two-level directory of a table's record ranges, shared by L-Store's
// Table and the three comparison engines.
//
// Readers resolve a range id with two acquire loads and no latch:
// the chunk pointer, then the range pointer. Growth (a chunk on first
// use, then the range) happens under one latch, and neither chunks
// nor ranges move once published. The directory owns its ranges.

#ifndef LSTORE_COMMON_RANGE_DIRECTORY_H_
#define LSTORE_COMMON_RANGE_DIRECTORY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/latch.h"

namespace lstore {

template <typename R>
class RangeDirectory {
  static constexpr uint32_t kChunkSize = 1024;
  static constexpr uint32_t kMaxChunks = 4096;

 public:
  /// Range ids the directory can hold at most.
  static constexpr uint64_t kCapacity = uint64_t{kChunkSize} * kMaxChunks;

  /// A directory of range ids below `limit` (at most kCapacity);
  /// Ensure refuses the rest.
  explicit RangeDirectory(uint64_t limit = kCapacity)
      : limit_(std::min(limit, kCapacity)),
        chunks_(std::make_unique<std::atomic<Chunk*>[]>(kMaxChunks)) {
    for (uint32_t c = 0; c < kMaxChunks; ++c) {
      chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
  }
  ~RangeDirectory() { Teardown(); }

  RangeDirectory(const RangeDirectory&) = delete;
  RangeDirectory& operator=(const RangeDirectory&) = delete;

  /// The range `id`, or nullptr if absent or past capacity.
  R* Get(uint64_t id) const {
    uint64_t c = id / kChunkSize;
    if (c >= kMaxChunks) return nullptr;
    Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return chunk->ranges[id % kChunkSize].load(std::memory_order_acquire);
  }

  /// The range `id`, built by `make()` (an owning `R*`) if absent;
  /// nullptr at or past the limit. Racing callers build it once.
  template <typename Make>
  R* Ensure(uint64_t id, Make&& make) {
    if (id >= limit_) return nullptr;
    R* r = Get(id);
    if (r != nullptr) return r;
    SpinGuard g(latch_);
    std::atomic<Chunk*>& c = chunks_[id / kChunkSize];
    Chunk* chunk = c.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new Chunk();
      c.store(chunk, std::memory_order_release);
    }
    std::atomic<R*>& slot = chunk->ranges[id % kChunkSize];
    r = slot.load(std::memory_order_acquire);
    if (r == nullptr) {
      r = make();
      slot.store(r, std::memory_order_release);
      AtomicMax(size_, id + 1);
    }
    return r;
  }

  /// Range ids below this can be ensured.
  uint64_t limit() const { return limit_; }

  /// One past the highest id ever ensured (ids below may be absent).
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Delete every range and chunk. No reader may remain; an owner
  /// whose ranges reference its other members calls this first.
  void Teardown() {
    for (uint32_t c = 0; c < kMaxChunks; ++c) {
      Chunk* chunk = chunks_[c].exchange(nullptr, std::memory_order_acq_rel);
      if (chunk == nullptr) continue;
      for (auto& r : chunk->ranges) delete r.load(std::memory_order_acquire);
      delete chunk;
    }
    size_.store(0, std::memory_order_release);
  }

 private:
  struct Chunk {
    std::atomic<R*> ranges[kChunkSize] = {};
  };

  const uint64_t limit_;
  mutable SpinLatch latch_;
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace lstore

#endif  // LSTORE_COMMON_RANGE_DIRECTORY_H_
