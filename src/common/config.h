// Tuning knobs of the lineage-based storage engine.
//
// Defaults follow the paper's evaluation (Section 6.1): 32 KB base
// pages, smaller tail pages (footnote 13), update ranges of 2^12..2^16
// records (Section 4.4), merge triggered once ~50% of the range size
// worth of tail records accumulated (Figure 8 discussion).

#ifndef LSTORE_COMMON_CONFIG_H_
#define LSTORE_COMMON_CONFIG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lstore {

class BufferPool;
class HealthRegistry;
class MetricsRegistry;
class SegmentStore;

struct TableConfig {
  /// Number of records per (virtual) update range. Power of two.
  /// Paper: 2^12 .. 2^16 (Section 4.4).
  uint32_t range_size = 1u << 12;

  /// Slots per base page. 32 KB pages of 8-byte values = 4096 slots.
  uint32_t base_page_slots = 4096;

  /// Slots per tail page. Tail pages may be smaller than base pages
  /// (footnote 13: "tail pages could be 4 KB while base pages are
  /// 32 KB").
  uint32_t tail_page_slots = 512;

  /// Merge a range once this many unmerged update tail records
  /// accumulated. Figure 8: best around 50% of the range size. Inserts
  /// do not count: a range's inserts merge once, when the range is
  /// full; a partial range's rows stay in table-level tail pages until
  /// its updates reach the threshold (or a foreground merge). The
  /// check runs when a commit or abort stamps the range's writes.
  uint32_t merge_threshold = 1u << 11;

  /// Cumulative updates (Section 3.1): a new tail record repeats the
  /// latest values of all columns updated since the last cumulation
  /// reset. Reset happens at merge boundaries (TPS high-water mark,
  /// Section 4.2). Disabling forces readers to walk the full chain.
  bool cumulative_updates = true;

  /// Unused by the engine: the catalog stores it (PutConfig) and reads
  /// it back, and nothing else reads it. Inserts take RIDs from one
  /// table-wide counter and keep each update range's rows in that
  /// range's own table-level tail pages (Section 3.2), so there is no
  /// separate insert range to size. Dropping the field changes the
  /// catalog format, which waits for a pinned-format corpus.
  uint32_t insert_range_size = 1u << 16;

  /// Run asynchronous merges (true in all experiments): a range that
  /// asks for a merge becomes a task on the table's serial queue on the
  /// shared pool, one range at a time. The name is the catalog flag's.
  bool enable_merge_thread = true;

  /// Buffer-managed base storage (src/buffer/): the pool that owns the
  /// table's base-segment frames and the swap store behind them. Wired
  /// by the owning Database (buffer_pool_bytes > 0) or by tests; both
  /// nullptr = fully resident base pages, as before. When only the
  /// LSTORE_BUFFER_POOL_BYTES env knob is set, a standalone table
  /// creates an owned pool spilling to an anonymous temp file, so
  /// every suite can be forced through the miss/evict path. Not
  /// persisted to the catalog.
  BufferPool* buffer_pool = nullptr;
  SegmentStore* segment_store = nullptr;

  /// Metrics registry the table records into (src/obs/metrics.h).
  /// Wired by the owning Database so every table of a database shares
  /// one registry; nullptr = a standalone table creates an owned
  /// registry, so Table::metrics() is always valid. Not persisted to
  /// the catalog.
  MetricsRegistry* metrics = nullptr;

  /// Health registry (src/obs/health.h) the table's merge tasks
  /// register their heartbeat with ("merge:<table>"). Wired by the
  /// owning Database like `metrics`; nullptr = no heartbeat (the
  /// standalone-table case). Not persisted to the catalog.
  HealthRegistry* health = nullptr;

  /// Test hook: while non-null and set, a merge task parks as it
  /// starts (busy, not beating) — how health tests inject a
  /// deterministic stall without touching merge internals. Not
  /// persisted to the catalog.
  std::atomic<int>* merge_test_park = nullptr;
};

/// Durability knobs of a database directory (Section 5.1.3). A durable
/// database pairs its one redo log with lineage-consistent checkpoints;
/// recovery = load latest checkpoint + replay log tail. A table is
/// durable only as a table of a database directory.
struct DurabilityOptions {
  /// Sync the redo log's data (File::SyncData) on every commit: the
  /// log's own policy, set once at Open. Group commit shares syncs
  /// without a knob: commits that append while one sync runs share the
  /// next (FramedLog::Sync).
  bool sync_commit = false;

  /// Drop redo records at or below the checkpoint watermark once the
  /// manifest is durable. Disable to simulate a crash between
  /// checkpoint write and truncation (recovery must still converge).
  bool truncate_log_after_checkpoint = true;

  /// Background checkpoint: a timer on the database's executor posts
  /// a checkpoint to its background queue `checkpoint_interval_ms`
  /// milliseconds of its clock after the last background checkpoint
  /// ended (0 = no timed trigger).
  uint64_t checkpoint_interval_ms = 0;

  /// Background checkpoint: a timer on the database's executor polls
  /// the appended length of the redo log's open segment (a checkpoint
  /// starts the next) and posts a checkpoint once it exceeds this many
  /// bytes (0 = no size trigger).
  uint64_t checkpoint_log_bytes = 0;

  /// Byte budget of the database-wide buffer pool for read-optimized
  /// base segments (src/buffer/buffer_pool.h). 0 = no pool: base
  /// pages stay fully resident, exactly the pre-buffer behavior.
  /// With a budget, merge output writes base segments through to
  /// per-table .segs swap files, cold ranges demand-load, and a
  /// clock sweep evicts clean cold frames over budget — so a table's
  /// base footprint can exceed RAM. The LSTORE_BUFFER_POOL_BYTES env
  /// knob supplies the budget when this field is 0 (CI's
  /// memory-capped job).
  uint64_t buffer_pool_bytes = 0;

  /// Log archiving / point-in-time recovery (src/archive/): when
  /// enabled, checkpoint truncation renames the redo log's retired
  /// segments to LSN-range-named files under <dir>/archive, and
  /// superseded checkpoints/manifests move there instead of being
  /// deleted — so Database::RestoreToPoint can rebuild the exact
  /// cross-table-consistent state at any archived commit point. Off
  /// (default) = truncation deletes the retired segments.
  bool archive_enabled = false;

  /// Retention policy of the archive (each 0 = unbounded on that
  /// axis). Enforcement drops whole restore epochs oldest-first: an
  /// archived checkpoint plus exactly the log segments that only
  /// serve points older than the next retained checkpoint — never a
  /// segment newer than the oldest restorable checkpoint.
  uint64_t archive_max_bytes = 0;        ///< total bytes under <dir>/archive
  uint64_t archive_max_segments = 0;     ///< number of .arc segments
  uint64_t archive_max_age_seconds = 0;  ///< age horizon (file mtimes)

  /// Stats reporter, a timer on the database's executor: every this
  /// many milliseconds it posts to the background queue one JSON
  /// MetricsSnapshot line for <dir>/metrics.log (post-mortem
  /// timelines), plus a final line at close. 0 (default) = no reporter.
  uint64_t metrics_report_interval_ms = 0;

  /// Slow-op log (src/obs/slow_op_log.h): a traced request whose total
  /// latency exceeds this many microseconds dumps its span timeline as
  /// one JSON line to <dir>/slowops.log. 0 (default) = no slow-op log.
  /// Requires tracing compiled in (LSTORE_TRACING=ON) and applies to
  /// traced requests only — untraced requests have no timeline to dump.
  uint64_t slow_op_threshold_us = 0;

  /// Size bound of <dir>/slowops.log: once the file reaches this many
  /// bytes it rotates to slowops.log.1 before the next dump (the pair
  /// bounds disk at ~2x the limit). 0 (default) = unbounded.
  uint64_t slow_op_log_max_bytes = 0;

  /// Watchdog sweep interval (src/obs/health.h): every this many
  /// milliseconds a timer on the database's executor classifies each
  /// registered actor healthy|slow|stalled, publishes lstore_health_*
  /// gauges, and on a new stall emits an event + one flight-recorder
  /// dump. 0 = no timer (Database::Health() still sweeps on demand).
  uint64_t watchdog_interval_ms = 1000;

  /// Per-actor watchdog deadlines applied at heartbeat registration:
  /// a busy actor silent past `health_slow_ms` is slow, past
  /// `health_stall_ms` stalled. 0 = the registry defaults (1s / 10s).
  uint64_t health_slow_ms = 0;
  uint64_t health_stall_ms = 0;

  /// Structured event log (src/obs/event_log.h): lifecycle events go
  /// to a bounded in-memory ring of this many entries plus (durable
  /// databases) JSON lines in <dir>/events.log, size-rotated to
  /// events.log.1 past `event_log_max_bytes` (0 = unbounded file).
  uint64_t event_ring_capacity = 256;
  uint64_t event_log_max_bytes = 0;

  /// Eagerly verify every segment-store byte range the checkpoint
  /// references during Open (reads the ranges back and checks their
  /// checksums; the segments themselves still restore lazily/cold).
  /// Off by default: verification reads O(table) base bytes, trading
  /// away the O(hot set) restart. When off, corruption in a .segs
  /// file is detected at first demand-load — which is fail-stop
  /// (abort), not a clean error, exactly like a flipped bit under an
  /// mmap'd file. Turn this on where .segs integrity is suspect and
  /// a clean Corruption status from Open is required.
  bool verify_segment_store_on_open = false;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_CONFIG_H_
