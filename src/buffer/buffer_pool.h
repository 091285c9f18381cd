// Buffer-managed base storage: a database-wide pool of read-optimized
// base-segment payloads with demand paging and clock eviction, so a
// table's base footprint can exceed RAM.
//
// The unit of residency is a SegmentPage: the compressed column of one
// base segment of one update range. Base segments are immutable
// between merges, which makes them ideal paging candidates — a page
// written through to its table's SegmentStore is always "clean", so
// eviction is a pointer swap plus an epoch-deferred free, never a
// write-back.
//
// A page leaves and re-enters memory in one form: the column's own
// serialized encoding (CompressedColumn::AppendTo / Parse), so a
// write-through appends the built column's bytes and a demand load
// parses them back — no value is re-encoded on either side. The
// page keeps that form's 16-byte header, which is enough to read one
// slot of a cold page straight from the store (ReadColdSlot) in any
// encoding; a checkpoint's segment-ref frame carries the same header
// across restarts.
//
// Concurrency model (two rings of defense):
//  * PageHandle pins (pin count) keep a frame resident while a scan or
//    point read is actively using it — the eviction policy skips
//    pinned frames, so a pinned cursor never has its payload stolen
//    mid-partition.
//  * The owning table's epoch manager is the memory-safety backstop:
//    eviction retires the payload through it, exactly like a merge
//    retires outdated base pages (Figure 6), so even a reader that
//    loses the pin/evict race (pin lands after the evictor's check)
//    reads a retired-but-not-freed copy of identical immutable bytes.
//    Every PageHandle must therefore be held under an EpochGuard of
//    the owning table — the same guard every base-data reader already
//    holds.
//
// Budget: a byte budget shared by every table of the database
// (DurabilityOptions::buffer_pool_bytes; 0 = no pool, fully resident
// as before). Going over budget triggers a bounded clock/second-chance
// sweep that evicts cold clean frames; pinned and never-written-
// through frames are never victims, so the pool may transiently
// exceed the budget when the pinned working set alone is larger.

#ifndef LSTORE_BUFFER_BUFFER_POOL_H_
#define LSTORE_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/types.h"
#include "storage/compressed_column.h"

namespace lstore {

class BufferPool;
class EpochManager;
class EventLog;
class SegmentStore;

/// Aggregate pool counters (mirrored into the lstore_buffer_* gauges).
struct BufferPoolStats {
  uint64_t hits = 0;        ///< pin found the payload resident
  uint64_t misses = 0;      ///< pin demand-loaded from the segment store
  uint64_t evictions = 0;   ///< payloads dropped by the clock sweep
  /// Point reads served by reading ONE slot of a cold segment from
  /// the store (no load, no residency change).
  uint64_t cold_point_reads = 0;
  uint64_t bytes_resident = 0;
  uint64_t budget_bytes = 0;  ///< 0 = unlimited
  uint64_t pages = 0;         ///< registered pages (resident or cold)
};

/// One buffer-managed payload. Shared across merge generations: an
/// update merge that leaves a column untouched shares the old page in
/// the fresh segment, so residency (and the swap location) carries
/// over for free. Destroyed when the last owning segment is reclaimed.
class SegmentPage {
 public:
  /// `epochs` is the owning table's reclamation domain — evicted
  /// payloads are retired through it.
  explicit SegmentPage(EpochManager* epochs) : epochs_(epochs) {}
  ~SegmentPage();

  SegmentPage(const SegmentPage&) = delete;
  SegmentPage& operator=(const SegmentPage&) = delete;

  /// Publish the freshly built payload (before the page becomes
  /// reachable through a range's segment directory).
  void SetResident(const CompressedColumn* col);

  /// Record the write-through location of the payload's serialized
  /// form, whose header is `layout`; from now on the page is evictable
  /// and can demand-load.
  void SetSwap(SegmentStore* store, uint64_t offset, uint64_t length,
               uint32_t checksum, const CompressedColumn::Header& layout);

  bool evictable() const { return store_ != nullptr; }
  bool resident() const {
    return payload_.load(std::memory_order_acquire) != nullptr;
  }
  /// The payload's byte_size() while resident, 0 while cold.
  uint64_t resident_bytes() const {
    return resident() ? resident_bytes_.load(std::memory_order_relaxed) : 0;
  }
  SegmentStore* store() const { return store_; }
  uint64_t swap_offset() const { return swap_offset_; }
  uint64_t swap_length() const { return swap_length_; }
  uint32_t swap_checksum() const { return swap_checksum_; }
  const CompressedColumn::Header& layout() const { return layout_; }

 private:
  friend class BufferPool;
  friend class PageHandle;

  /// Resolve the payload for a pinned reader (hit fast path inline in
  /// BufferPool::Acquire; cold pages load from the store).
  std::atomic<const CompressedColumn*> payload_{nullptr};
  std::atomic<uint32_t> pins_{0};
  std::atomic<bool> referenced_{true};  ///< clock second-chance bit
  /// Cold slot reads since the page last went cold (promotion gate).
  std::atomic<uint32_t> cold_reads_{0};
  std::atomic<uint64_t> resident_bytes_{0};  ///< charged while resident
  EpochManager* epochs_;
  SegmentStore* store_ = nullptr;
  uint64_t swap_offset_ = 0;
  uint64_t swap_length_ = 0;
  uint32_t swap_checksum_ = 0;
  CompressedColumn::Header layout_;  ///< header of the stored form

  /// Set at Register, cleared by Unregister/DetachDomain.
  std::atomic<BufferPool*> pool_{nullptr};
  // Clock ring links, guarded by the pool mutex.
  SegmentPage* clock_prev_ = nullptr;
  SegmentPage* clock_next_ = nullptr;
};

class BufferPool {
 public:
  /// `budget_bytes` = 0 means unlimited (track stats, never evict).
  explicit BufferPool(uint64_t budget_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Add a page to the clock ring (charging its resident bytes) and
  /// evict down to budget. Called once per page, before the owning
  /// segment is published to readers.
  void Register(SegmentPage* page);

  /// Remove a page (from ~SegmentPage). Idempotent.
  void Unregister(SegmentPage* page);

  /// Detach every page of one table's epoch domain from the ring
  /// WITHOUT freeing payloads — called at the start of Table teardown
  /// so no concurrent eviction can retire into an epoch manager that
  /// is being destroyed.
  void DetachDomain(EpochManager* epochs);

  /// Resolve the payload of a page the caller has already pinned;
  /// demand-loads on miss. Never returns null: a load failure of
  /// bytes this process wrote is a storage-integrity fault and aborts.
  const CompressedColumn* Acquire(SegmentPage* page);

  /// Pool-less demand load (a lazily restored segment on a database
  /// reopened WITHOUT a pool): read, verify, parse, publish — no
  /// budget accounting, so the page stays resident once hydrated.
  /// `*won` reports whether this call published the payload.
  static const CompressedColumn* LoadColdPayload(SegmentPage* page,
                                                 bool* won);

  /// Single-value demand read: serve a point read of one slot of a
  /// COLD segment by reading only the bytes of that slot from the
  /// store (CompressedColumn::ReadSlot, addressed by the page's
  /// layout) — no load, no residency or clock-state change.
  /// Returns false (caller pins as usual) when the page is resident
  /// or storeless — or once the page has absorbed
  /// kColdReadPromotion slot reads since it last went cold: a page
  /// that hot deserves residency, so declining hands it to the pin
  /// path, which hydrates it and serves every later read from memory
  /// (one pread per read forever would be the wrong steady state).
  /// Trade-off, mirroring an mmap'd read: the whole-payload checksum
  /// is only verified on full hydration, so a flipped bit inside the
  /// slot bytes is served as-is here —
  /// DurabilityOptions::verify_segment_store_on_open covers
  /// deployments that need eager integrity.
  static bool ReadColdSlot(SegmentPage* page, uint32_t slot, Value* out);

  /// Cold slot reads a page absorbs before ReadColdSlot declines and
  /// the next point read hydrates it (reset at each eviction).
  static constexpr uint32_t kColdReadPromotion = 8;

  /// Evict cold clean frames until bytes_resident <= budget (bounded
  /// sweep; public so tests can force the invariant point).
  void EnforceBudget();

  BufferPoolStats stats() const;
  uint64_t budget_bytes() const { return budget_; }

  /// Wire the engine event log (nullable): EnforceBudget emits
  /// `budget_pressure` (warn) when a sweep cannot get back under
  /// budget — the pinned working set alone exceeds it — and
  /// `budget_relieved` (info) once a later sweep succeeds.
  void set_event_log(EventLog* events) {
    events_.store(events, std::memory_order_release);
  }

  /// Value of the LSTORE_BUFFER_POOL_BYTES test knob (0 = unset): CI
  /// uses it to force every suite through the miss/evict path.
  static uint64_t EnvBudgetBytes();

 private:
  const CompressedColumn* Load(SegmentPage* page);
  /// Remove a page from the clock ring; caller holds mu_.
  void UnlinkLocked(SegmentPage* page);
  void CountHit();
  /// Record the post-sweep pressure state, emitting an event on each
  /// transition (see set_event_log).
  void NoteBudgetPressure(bool over);

  const uint64_t budget_;
  std::atomic<EventLog*> events_{nullptr};
  std::atomic<bool> over_budget_{false};
  /// Hit counting is the only pool-global write on the read hot path;
  /// shard it so point reads across threads do not all RMW one cache
  /// line. stats() sums the shards.
  static constexpr size_t kHitShards = 16;
  struct alignas(64) HitShard {
    std::atomic<uint64_t> n{0};
  };
  HitShard hits_[kHitShards];
  std::atomic<uint64_t> cold_point_reads_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_resident_{0};
  std::atomic<uint64_t> pages_{0};

  /// Held across one whole eviction pass (victim collection, retire,
  /// reclaim). DetachDomain takes it too, so a table being destroyed
  /// waits out any in-flight pass that may have collected its pages —
  /// no retire can land in an EpochManager after its table detached.
  /// Order: evict_mu_ before mu_.
  std::mutex evict_mu_;
  std::mutex mu_;  ///< clock ring structure + hand
  SegmentPage* clock_hand_ = nullptr;
  uint64_t ring_size_ = 0;
};

}  // namespace lstore

#endif  // LSTORE_BUFFER_BUFFER_POOL_H_
