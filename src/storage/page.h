// Fixed-size columnar page.
//
// A page holds `capacity` 64-bit slots of a single column (Section
// 2.1: storage is natively columnar, and tail pages "directly mirror
// the structure and the schema of base pages"). Slots are atomic so
// that the same page type serves:
//  * read-only base pages (plain relaxed loads),
//  * append-only tail pages (write-once slots, published by the
//    tail segment's sequence counter),
//  * the in-place-updated Indirection and Start Time slots.
//
// Storage hierarchy note: this atomic page type backs the RESIDENT
// tier only — tail segments and the Indirection column, which are
// mutable and must stay in memory. The read-optimized base segments
// (storage/compressed_column.h) sit one tier below: immutable between
// merges, buffer-managed (src/buffer/), and demand-paged from
// checkpoint segment stores so a table's base footprint can exceed
// RAM.

#ifndef LSTORE_STORAGE_PAGE_H_
#define LSTORE_STORAGE_PAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/types.h"

namespace lstore {

class Page {
 public:
  /// Creates a page with all slots initialized to `fill` (tail pages
  /// pre-assign the special null value ∅, Section 2.1). Each slot is
  /// written once: a memset when every byte of `fill` is equal (∅ and
  /// 0), a placement loop otherwise.
  explicit Page(uint32_t capacity, Value fill = kNull);

  uint32_t capacity() const { return capacity_; }

  Value Get(uint32_t slot) const {
    return slots_[slot].load(std::memory_order_acquire);
  }
  void Set(uint32_t slot, Value v) {
    slots_[slot].store(v, std::memory_order_release);
  }

  /// CAS for in-place-updated meta columns (Indirection, lazy commit-
  /// time stamping of Start Time).
  bool CompareAndSwap(uint32_t slot, Value& expected, Value desired) {
    return slots_[slot].compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel);
  }

  std::atomic<Value>& AtomicSlot(uint32_t slot) { return slots_[slot]; }

 private:
  /// The slots are raw storage from operator new: no value-initializing
  /// constructor runs ahead of the fill.
  struct FreeSlots {
    void operator()(std::atomic<Value>* p) const { ::operator delete(p); }
  };

  uint32_t capacity_;
  std::unique_ptr<std::atomic<Value>[], FreeSlots> slots_;
};

static_assert(std::atomic<Value>::is_always_lock_free,
              "L-Store requires lock-free 64-bit atomics");
static_assert(sizeof(std::atomic<Value>) == sizeof(Value),
              "a page's fill writes a slot's bytes directly");
static_assert(std::is_trivially_destructible_v<std::atomic<Value>>,
              "a page frees its slots without destroying them");

}  // namespace lstore

#endif  // LSTORE_STORAGE_PAGE_H_
