// Database: a collection of L-Store tables sharing one transaction
// manager and logical clock, giving multi-statement transactions that
// span tables (the paper's transaction layer operates above the
// storage layer; Section 3: "we support multi-statement transactions
// through L-Store's transaction layer").
//
// A database opened on a directory is *durable* (Section 5.1.3): all
// of its tables append to ONE redo log, the segments
// <dir>/redo.<first LSN>.log, each record naming its table by a
// catalog id that is never reused. A commit or abort record is one
// frame whatever the number of tables, so one Sync makes any
// transaction durable, and Sync shares fsyncs among concurrent
// committers (group commit). `Checkpoint()` rolls the log to a new
// segment at one watermark, writes lineage-consistent snapshots, and
// retires the segments below the watermark,
// and `Open()` performs full restart recovery (catalog -> checkpoints
// -> one log scan -> outcome resolution -> index/Indirection rebuild).

#ifndef LSTORE_CORE_DATABASE_H_
#define LSTORE_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/segment_store.h"
#include "checkpoint/checkpoint_manager.h"
#include "common/config.h"
#include "common/executor.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/table.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "txn/txn.h"

namespace lstore {

class ArchiveManager;
class CheckpointManager;
class Heartbeat;
class RedoLog;
class SlowOpLog;

/// A point to restore to (Database::RestoreToPoint): either an
/// inclusive commit time, or the LSN of a commit record in the redo
/// log — any transaction's (resolved to that record's commit time).
struct RestorePoint {
  Timestamp commit_time = 0;
  uint64_t commit_lsn = 0;
  static RestorePoint AtTime(Timestamp t) {
    RestorePoint p;
    p.commit_time = t;
    return p;
  }
  static RestorePoint AtCommitLsn(uint64_t lsn) {
    RestorePoint p;
    p.commit_lsn = lsn;
    return p;
  }
};

class Database : public TxnContext {
 public:
  /// In-memory database (no durability).
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Open (or create) a durable database rooted at directory `dir`.
  /// Recovers every cataloged table from its latest checkpoint plus
  /// the redo-log tail; a corrupt manifest or checkpoint fails with a
  /// clean Corruption status. The checkpoint trigger, the reporter and
  /// the watchdog that `opts` configures become executor timers.
  static Status Open(const std::string& dir, const DurabilityOptions& opts,
                     std::unique_ptr<Database>* out);
  static Status Open(const std::string& dir, std::unique_ptr<Database>* out) {
    return Open(dir, DurabilityOptions{}, out);
  }

  /// Take a lineage-consistent checkpoint of every table and truncate
  /// the redo log to the recorded watermark. NotSupported on an
  /// in-memory database.
  Status Checkpoint();

  /// Point-in-time recovery (requires a directory whose checkpoints
  /// ran with DurabilityOptions::archive_enabled): open `dir`
  /// read-only, load the newest checkpoint at or before the point,
  /// stitch the archived log segments and the live log into one
  /// LSN-continuous stream, and replay it with its outcomes truncated
  /// at the point — the result is an in-memory Database holding the
  /// exact committed state at the point (a transaction is present with
  /// ALL of its writes, on every table, or none). The point is
  /// inclusive: commits with commit_time <= point are present. Fails
  /// with NotFound when the point precedes the archived history
  /// (retention evicted it) and with Corruption when a segment before
  /// the newest is torn or a gap breaks the chain — never silently missing
  /// data. Scope: the restore covers the tables in the CURRENT catalog
  /// — a dropped table's records are skipped, even under a name
  /// reused since, since catalog ids are never reused. `dir` must not
  /// have a writing Database attached.
  static Status RestoreToPoint(const std::string& dir,
                               const RestorePoint& point,
                               std::unique_ptr<Database>* out);

  bool durable() const { return !dir_.empty(); }
  const std::string& directory() const { return dir_; }
  CheckpointManager* checkpoint_manager() { return checkpoint_manager_.get(); }

  /// The database's one redo log (null on an in-memory database).
  RedoLog* redo_log() { return log_.get(); }
  /// The log archive (null unless DurabilityOptions::archive_enabled).
  ArchiveManager* archive_manager() { return archive_.get(); }

  /// Create a table registered under `name`. Fails if the name exists.
  /// On a durable database, logging is forced on (into the database's
  /// one log) and the schema/config are persisted to the catalog under
  /// a fresh id, so the table survives restarts even before its first
  /// checkpoint.
  Status CreateTable(const std::string& name, Schema schema,
                     TableConfig config);

  /// Lookup; nullptr if absent.
  Table* GetTable(const std::string& name);

  /// Drop a table (must not have in-flight transactions touching it).
  /// On a durable database also removes its catalog entry; its log
  /// records and checkpoint file leave at the next checkpoint.
  Status DropTable(const std::string& name);

  /// Create a secondary index on `table`.`col`. On a durable database
  /// the index column is persisted to the catalog, so the index is
  /// rebuilt on every restart — unlike Table::CreateSecondaryIndex
  /// called directly, which only reaches the durable state at the
  /// next checkpoint.
  Status CreateSecondaryIndex(const std::string& table, ColumnId col);

  std::vector<std::string> TableNames() const;

  /// Begin an RAII transaction session valid across every table of
  /// this database: commit with txn.Commit(); a session destroyed
  /// while active aborts automatically. The commit runs the same
  /// pipeline as single-table sessions — validation against each
  /// participating table, one commit record in the one log, and the
  /// state flip in the shared manager as the single atomic commit
  /// point for all of them.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  TransactionManager& txn_manager() { return txn_manager_; }

  /// A read snapshot covering every currently-committed transaction,
  /// WITHOUT advancing the logical clock — the right timestamp for
  /// read-only scans across tables (Query::AsOf).
  Timestamp Now() const { return txn_manager_.SnapshotNow(); }

  /// A ticking timestamp: advances the clock and returns a time newer
  /// than every previous event. Prefer Now() for read-only scans.
  Timestamp ReadTimestamp() { return txn_manager_.clock().Tick(); }

  /// The database-wide buffer pool for read-optimized base segments
  /// (nullptr when DurabilityOptions::buffer_pool_bytes — or the
  /// LSTORE_BUFFER_POOL_BYTES knob — is 0: fully resident).
  BufferPool* buffer_pool() { return buffer_pool_.get(); }

  /// The engine-wide metrics registry shared by every table of this
  /// database (src/obs/metrics.h).
  MetricsRegistry& metrics() { return metrics_; }

  /// One consistent snapshot of every engine metric: commit-stage and
  /// group-commit timings, redo-log traffic, merge durations,
  /// buffer-pool and epoch levels, checkpoint/archive phases. Render
  /// with MetricsSnapshot::RenderPrometheus() / RenderJson().
  MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  /// The flight recorder's current contents as Chrome trace-event JSON
  /// (chrome://tracing / Perfetto loadable): every span of every traced
  /// request still retained in the per-thread rings. Served over the
  /// wire as the TRACE op (`lstore_cli trace`). Under LSTORE_TRACING=
  /// OFF: a valid document with zero events.
  std::string DumpTrace() const;

  /// The slow-op log (src/obs/slow_op_log.h), or nullptr unless the
  /// database is durable, tracing is compiled in, and
  /// DurabilityOptions::slow_op_threshold_us > 0.
  SlowOpLog* slow_op_log() { return slow_op_log_.get(); }

  /// The heartbeat registry every background actor of this engine
  /// registers with (src/obs/health.h) — each table's merge tasks, the
  /// checkpointer, the log's group-commit writes, the stats reporter,
  /// and a co-resident Server's workers/readers. Its clock is also the
  /// executor's.
  HealthRegistry& health() { return health_; }

  /// The structured event log (src/obs/event_log.h): in-memory ring
  /// always; plus <dir>/events.log JSON lines when durable.
  EventLog& event_log() { return events_; }

  /// The watchdog sweeping the health registry. It sweeps as an
  /// executor timer only on a durable database with
  /// watchdog_interval_ms > 0; Health() sweeps on demand either way.
  Watchdog* watchdog() { return watchdog_.get(); }

  /// The background executor (src/common/executor.h): the timers of a
  /// durable database (checkpoint trigger, reporter, watchdog). Its
  /// timer thread runs only when a timer exists; an in-memory database
  /// has none.
  Executor& executor() { return executor_; }

  /// The serial queue on the shared pool that the timers post the
  /// database's background checkpoints and metrics.log lines to.
  SerialQueue& background() { return background_; }

  /// One on-demand watchdog sweep plus the newest retained events:
  /// the typed report behind the HEALTH wire op / `lstore_cli status`.
  HealthReport Health();

 private:
  friend class CheckpointManager;

  /// Cross-table commit/abort via the unified pipeline (sessions call
  /// these through TxnContext).
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;
  /// A snapshot of the registered tables: the pipeline's candidates.
  std::vector<EngineBase*> LiveTables() const;

  /// Append one JSON MetricsSnapshot line to <dir>/metrics.log, opened
  /// per line so an operator can rotate the file at any moment.
  void ReportMetrics();

  /// Registered tables, in creation order (checkpoint + catalog use).
  std::vector<std::pair<std::string, Table*>> TableHandles() const;

  /// Rewrite the catalog from the current table set (atomic rename).
  Status PersistCatalog() { return PersistCatalogExcluding(nullptr); }
  /// Same, omitting `skip` (DropTable persists before erasing memory).
  Status PersistCatalogExcluding(const Table* skip);

  /// What a recovery reads. Restart (Open) and point-in-time restore
  /// (RestoreToPoint) differ only in these inputs; both then run the
  /// one recovery step, Recover.
  struct RecoverySource {
    std::string dir;  ///< directory holding the checkpoints and logs
    Manifest manifest;  ///< the checkpoint to start from (none: empty)
    Timestamp horizon = kMaxTimestamp;  ///< the restore point, if any
    /// Restore: the redo stream past the manifest's watermark (the
    /// archived and live segments in one chain), read only. Null
    /// (restart): the live log opens for appending.
    const std::vector<FramedLog::Segment>* stream = nullptr;
  };

  /// The one recovery step: build and register every table of
  /// `catalog` (CreateTableInternal), load its checkpoint from `src`'s
  /// manifest, replay the one redo stream into every table
  /// (Table::ReplayLog), resolve and rebuild each table against the
  /// outcomes, rebuild its secondary indexes, and resume the clock
  /// past every recovered commit.
  Status Recover(const Catalog& catalog, const RecoverySource& src);

  /// Build a table with catalog id `id`, publish it in the registry,
  /// and attach it to the database log. `store_dir` (empty: none) holds
  /// its segment store.
  Status CreateTableInternal(const std::string& name, Schema schema,
                             TableConfig config, uint64_t id,
                             const std::string& store_dir, Table** out);

  TransactionManager txn_manager_;
  mutable SpinLatch latch_;
  /// Engine-wide metrics registry. Declared before every subsystem
  /// that records into it (tables, logs, pipeline, checkpointing) so
  /// the handles they cache stay valid for their whole lifetime.
  MetricsRegistry metrics_;
  /// Health registry + event log: declared right after metrics_ (and
  /// before every subsystem) for the same reason — actors hold
  /// heartbeat handles and emit events for their whole lifetime. The
  /// watchdog itself only reads these members, but its timer stops
  /// FIRST in ~Database so no sweep races subsystem teardown.
  HealthRegistry health_;
  EventLog events_;
  std::unique_ptr<Watchdog> watchdog_;
  /// "group_commit" actor: busy while the log's Sync writes (durable
  /// only). Declared before the log that holds it raw.
  std::shared_ptr<Heartbeat> group_commit_hb_;
  /// The one redo log every table appends to (durable only). Declared
  /// before tables_, which hold it raw, so it outlives them.
  std::unique_ptr<RedoLog> log_;
  /// Serializes durable DDL (CreateTable/DropTable/CreateSecondaryIndex)
  /// against checkpoints: a checkpoint iterates raw Table pointers, so
  /// a concurrent drop must not destroy a table mid-capture. Ordering:
  /// ddl_mu_ before the checkpoint manager's internal mutexes.
  mutable std::mutex ddl_mu_;
  /// Buffer-managed base storage: one pool for the whole database,
  /// one swap store per table. Declared BEFORE tables_ so both
  /// outlive the tables whose destructors detach pages from the pool
  /// (and whose cold pages read from the stores).
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unordered_map<std::string, std::unique_ptr<SegmentStore>>
      segment_stores_;

  struct Entry {
    std::string name;
    std::unique_ptr<Table> table;
  };
  std::vector<Entry> tables_;

  /// The id the next created table gets (persisted in the catalog).
  uint64_t next_table_id_ = 0;

  std::string dir_;  ///< empty = in-memory
  DurabilityOptions durability_;
  /// Log archiving / PITR (durable + archive_enabled only).
  std::unique_ptr<ArchiveManager> archive_;

  // Declared last: destroyed (and therefore stopped) before tables_.
  std::unique_ptr<CheckpointManager> checkpoint_manager_;
  /// Slow-op dump sink (<dir>/slowops.log); created by Open when
  /// DurabilityOptions::slow_op_threshold_us > 0 and tracing is
  /// compiled in. Consumers (Server workers) hold the raw pointer only
  /// while the Database lives — same contract as the registry handles.
  std::unique_ptr<SlowOpLog> slow_op_log_;
  /// Last-seen FlightRecorder::dropped() value, so the registry
  /// collector can mirror the delta into the monotonic counter.
  std::atomic<uint64_t> trace_dropped_seen_{0};
  /// "reporter" actor: busy while a metrics.log line is written
  /// (DurabilityOptions::metrics_report_interval_ms > 0 only).
  std::shared_ptr<Heartbeat> reporter_hb_;
  /// Background checkpoints and metrics.log lines, one at a time;
  /// `report_queued_`: a line is posted or being written.
  SerialQueue background_;
  std::atomic<bool> report_queued_{false};
  /// Last: ~Database stops it, then `background_`, before anything
  /// their timers and tasks touch is torn down.
  Executor executor_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_DATABASE_H_
