// L-Store table: the lineage-based storage architecture (Sections 2-5).
//
// A Table is an engine on the shared core (core/engine_core.h), which
// holds its schema, config, transaction manager, primary index, range
// directory and sessions; its commits and aborts run the one commit
// pipeline of all four engines (core/commit_pipeline.cc). On top of
// the core, one Table owns:
//  * its update ranges (core/range.h): each one the unit of lineage,
//    holding base segments, tail pages, the in-place Indirection column
//    and the historic store, with the single-range operations — reads,
//    tail appends, merges, historic compression, capture and replay,
//  * the context its ranges share, and optional secondary indexes,
//  * the pipeline steps only L-Store fills in: read validation, the
//    redo log the durability point writes, and epoch-pinned stamping,
//  * a background merge queue (Section 4.1) with epoch-based page
//    reclamation (Figure 6) and the segment-page factory,
//  * optional redo-only logging with crash recovery (Section 5.1.3).
//
// Thread safety: all public operations are safe for concurrent use.
// Readers never latch pages; writers synchronize per record through
// the Indirection latch bit (Section 5.1.1).

#ifndef LSTORE_CORE_TABLE_H_
#define LSTORE_CORE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_handle.h"
#include "buffer/segment_store.h"
#include "common/config.h"
#include "common/epoch.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "core/range.h"
#include "core/schema.h"
#include "index/primary_index.h"
#include "index/secondary_index.h"
#include "log/redo_log.h"
#include "obs/metrics.h"
#include "storage/compressed_column.h"
#include "storage/tail_segment.h"
#include "txn/transaction.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

class MergeManager;
class Query;

/// Recovered transaction outcomes: the commit time of every
/// transaction that committed (absent = aborted or never finished).
using CommitOutcomes = std::unordered_map<TxnId, Timestamp>;

/// The one outcome fold of recovery (restart, point-in-time restore,
/// and each table's own commit/abort records): a commit at or before
/// `horizon` records its commit time; a later abort is authoritative.
/// An abort is only logged after the commit record's flush or the
/// pipeline failed, so the client saw the abort; txn ids are never
/// reused, so the erase cannot drop a commit that comes later.
void FoldOutcome(CommitOutcomes* outcomes, TxnId txn, bool aborted,
                 Timestamp commit_time, Timestamp horizon = kMaxTimestamp);

/// The one clock resume of recovery: advance past `newest` and past
/// every recovered commit (no-op commits that left no tail records
/// included), so no fresh transaction id or commit time collides with
/// a recovered one.
void ResumeClock(const CommitOutcomes& outcomes, Timestamp newest,
                 TransactionManager* txn_manager);

class Table : public EngineCore<Range> {
 public:
  Table(std::string name, Schema schema, TableConfig config,
        TransactionManager* txn_manager = nullptr);

  /// Unnamed-table convenience constructor.
  Table(Schema schema, TableConfig config,
        TransactionManager* txn_manager = nullptr)
      : Table("table", std::move(schema), std::move(config), txn_manager) {}
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Sessions (Begin, Now) come from the engine core.

  // --- fine-grained manipulation (Section 3) -------------------------------
  // Every session operation rejects a finished (committed/aborted)
  // Txn up front: a retired transaction id would publish permanently
  // invisible versions and leak index entries. It also rejects a Txn
  // begun on another engine (CheckActive, txn/txn.h).

  /// Insert a full row; row[0] is the primary key.
  Status Insert(Txn& txn, const std::vector<Value>& row);

  /// Update the columns in `mask` to `row[col]` for each set bit.
  /// Column 0 (the key) must not be updated.
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);

  /// Delete = update writing the delete tombstone (Section 3.1).
  Status Delete(Txn& txn, Value key);

  /// Read the columns in `mask` of the visible version into
  /// out[col] (out is resized to num_columns; unrequested cols = ∅).
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);

  /// Speculative read ([18]): also sees pre-commit versions and adds
  /// a commit dependency.
  Status SpeculativeRead(Txn& txn, Value key, ColumnMask mask,
                         std::vector<Value>* out);

  /// Time-travel point read at a historical timestamp (no txn).
  Status ReadAsOf(Value key, Timestamp as_of, ColumnMask mask,
                  std::vector<Value>* out);

  // --- batched point operations --------------------------------------------
  // Amortize index probes (one sharded MultiGet), epoch entry, latch
  // traffic, and redo logging (ONE log frame per batch) over many keys.

  /// Read `mask` of every key; rows->at(i) holds the columns of
  /// keys[i] (missing/invisible keys leave the row empty). Returns
  /// the first per-key error if any (reads continue past misses);
  /// statuses (optional) receives each key's individual outcome.
  Status MultiRead(Txn& txn, const std::vector<Value>& keys, ColumnMask mask,
                   std::vector<std::vector<Value>>* rows,
                   std::vector<Status>* statuses = nullptr);

  /// Insert many full rows with one redo-log frame. Stops at the
  /// first failing row (already-inserted rows stay in the session's
  /// writeset and commit/abort with it); a key repeated within the
  /// batch fails at its second occurrence.
  Status InsertBatch(Txn& txn, const std::vector<std::vector<Value>>& rows);

  /// Update `mask` of keys[i] to rows[i] with one redo-log frame.
  /// Stops at the first failing key.
  Status UpdateBatch(Txn& txn, const std::vector<Value>& keys, ColumnMask mask,
                     const std::vector<std::vector<Value>>& rows);

  /// Delete every key with one index probe pass, one epoch entry, and
  /// one redo-log frame (mirrors UpdateBatch). Stops at the first
  /// failing key; already-deleted rows stay in the session's writeset
  /// and commit/abort with it.
  Status DeleteBatch(Txn& txn, const std::vector<Value>& keys);

  // --- analytics ------------------------------------------------------------

  /// Composable snapshot query (core/query.h): projection, row range,
  /// predicates, time travel, parallel partitioned execution. The sole
  /// scan surface — Sum/Count/Visit/Keys terminals.
  Query NewQuery() const;

  // --- secondary indexes (Section 3.1) --------------------------------------

  void CreateSecondaryIndex(ColumnId col);

  // --- maintenance -----------------------------------------------------------

  /// Foreground merge of one range (tests/benchmarks). Returns true
  /// if any tail records were consolidated.
  bool MergeRangeNow(uint64_t range_id);

  /// Foreground merge restricted to the given data columns —
  /// exercises independent per-column merging (Section 4.2, Lemma 3).
  bool MergeRangeColumns(uint64_t range_id, ColumnMask cols);

  /// Insert-merge: turn table-level tail pages into base segments for
  /// the committed prefix of the range (Section 3.2).
  bool InsertMergeNow(uint64_t range_id);

  /// Compress merged tail records older than every active snapshot
  /// into the historic store (Section 4.3). Returns #versions moved.
  size_t CompressHistoricNow(uint64_t range_id);

  /// Insert-merge every range up to current occupancy and run update
  /// merges until quiescent. For loading phases and tests.
  void FlushAll();

  /// Drain the merge queue (waits for the background thread).
  void WaitForMergeQueue();

  // --- introspection ---------------------------------------------------------

  EpochManager& epochs() const { return epochs_; }
  /// The metrics registry this table records into: the owning
  /// database's (shared across its tables) or an owned one for
  /// standalone tables — never null.
  MetricsRegistry* metrics() const { return metrics_; }
  /// Buffer pool managing this table's base segments (nullptr = fully
  /// resident base pages).
  BufferPool* buffer_pool() const { return buffer_pool_; }
  /// fsync the swap store so every segment reference a checkpoint is
  /// about to publish is durable first. No-op without a durable store.
  Status SyncSegmentStore();
  uint32_t RangeTps(uint64_t range_id) const;
  uint32_t RangeTailLength(uint64_t range_id) const;

  /// Bytes of the primary index.
  size_t PrimaryIndexBytes() const { return primary_.byte_size(); }
  /// Summed byte_size() of the resident base-segment payloads (cold
  /// pages count 0).
  uint64_t BaseResidentBytes() const;
  /// Bytes of the Indirection column (8 bytes a slot, 12 in tables
  /// wider than 39 columns) of the ranges that have been updated; 0
  /// for a table that was only loaded.
  uint64_t UpdateMetaBytes() const { return SumRanges(&Range::MetaBytes); }
  /// Bytes of the allocated tail pages, update and insert.
  uint64_t TailBytes() const { return SumRanges(&Range::TailBytes); }

  /// For tests (Lemma 3): per-data-column TPS of a range.
  std::vector<uint32_t> RangeColumnTps(uint64_t range_id) const;

  /// Debug introspection: the version chain of a key, newest first.
  using ChainEntry = Range::ChainEntry;
  std::vector<ChainEntry> DebugChain(Value key, ColumnId col) const;

  /// Recover table contents by replaying the redo log at
  /// config.log_path (call on a freshly constructed, empty table).
  /// RecoverDurable with no checkpoint: a logging table must run one
  /// of the two before it writes, since that is where its log opens.
  Status RecoverFromLog();

  /// Full restart recovery (Section 5.1.3): load the checkpoint file
  /// (may be empty = none), replay the redo-log tail beyond
  /// `log_watermark`, resolve pending transaction outcomes, and
  /// rebuild the primary index and the Indirection column from Base
  /// RID backpointers (recovery option 2). Call on a freshly
  /// constructed, empty table. This is the one place a logging
  /// table's log is opened: the open-time scan that restores its LSN
  /// counter and cuts a torn tail also delivers the records replayed,
  /// so the file is read once. Until then, and after a failed
  /// recovery, its commits fail at the log flush. `db_commits` carries
  /// the database commit log's verdicts: cross-table transactions leave
  /// no commit record in the per-table logs, so their outcome resolves
  /// from it — on every participant or none.
  ///
  /// `log_paths` (optional, for tables that do not log) overrides the
  /// replay source with an ordered list of framed log files, read
  /// only: the archive stitcher passes sealed segments followed by the
  /// live log, forming one LSN-continuous stream. `commit_horizon`
  /// truncates the outcome map for point-in-time restores: per-table
  /// commit records with commit_time > horizon are treated as never
  /// having committed (their tail records become aborted tombstones,
  /// exactly like a crash before the commit record).
  Status RecoverDurable(const std::string& checkpoint_file,
                        uint64_t log_watermark,
                        uint64_t checkpoint_checksum = 0,
                        const CommitOutcomes* db_commits = nullptr,
                        const std::vector<std::string>* log_paths = nullptr,
                        Timestamp commit_horizon = kMaxTimestamp);

  /// Columns carrying a secondary index (recorded in the checkpoint
  /// manifest so recovery can rebuild them).
  std::vector<ColumnId> SecondaryColumns() const;

 private:
  // The commit pipeline needs no grant: it reaches a table through the
  // engine steps below, which EngineBase (core/engine_core.h) declares.
  friend class MergeManager;
  friend class CheckpointIO;       ///< capture/restore (checkpoint/serde.cc)
  friend class CheckpointManager;  ///< log watermarks + truncation
  friend class Query;              ///< scan executor (core/query.cc)
  friend class Database;           ///< cross-table sessions share the ops

  /// `bytes` summed over the table's ranges.
  uint64_t SumRanges(uint64_t (Range::*bytes)() const) const;

  // --- engine steps (core/engine_core.h) -------------------------------------

  Range* NewRange(uint64_t id) override {
    return new Range(id, &range_ctx_);
  }
  bool StampWrite(Range& r, const WriteEntry& w, TxnId txn,
                  Value outcome) override {
    return r.Stamp(w, txn, outcome);
  }
  /// An insert-merge scheduled while the transaction was in flight
  /// stopped at its first record; with no later insert into the range
  /// nothing would schedule another, leaving the records in
  /// table-level tail pages. Schedule one now that they resolved.
  void InsertsStamped(Range& r) override { MaybeScheduleMerge(r); }
  /// The core's stamping loop under an epoch pin: without it, an
  /// insert-merge (or historic compression) that already resolved the
  /// transaction's outcome via the manager could reclaim tail pages
  /// under the loop.
  void StampWrites(Transaction* txn, Value outcome) override {
    EpochGuard guard(epochs_);
    EngineCore::StampWrites(txn, outcome);
  }
  Status ValidateReads(Transaction* txn, Timestamp commit_time) override;
  RedoLog* redo_log() override { return log_.get(); }
  const TableCounters* counters() const override { return &obs_; }

  /// The one point-read step (Read, SpeculativeRead, ReadAsOf and each
  /// key of MultiRead): resolve a located record under `spec` into
  /// `out` (sized to num_columns; mask bits past the schema are
  /// ignored), record the read-set entry and any speculative
  /// dependency when spec.txn is set, and count the read. The caller
  /// holds the epoch pin.
  Status ReadLocated(Range& r, uint32_t slot, const ReadSpec& spec,
                     ColumnMask mask, std::vector<Value>* out);
  /// Probe `key` and read it through ReadLocated.
  Status ReadKey(Value key, const ReadSpec& spec, ColumnMask mask,
                 std::vector<Value>* out);

  // Write machinery ----------------------------------------------------------
  // `log_sink` != nullptr collects redo records instead of appending
  // them — the batch operations emit ONE log frame per batch. Callers
  // of these hold the epoch pin.

  /// The one insert path (Section 3.2): `Insert` passes a single row,
  /// `InsertBatch` the batch. Reserves the rows' RIDs at once, inserts
  /// their keys shard by shard, and fills table-level tail pages one
  /// page run at a time. Stops at the first duplicate key or bad-arity
  /// row: earlier rows stay inserted, later ones leave no index entry,
  /// and their reserved slots are stamped aborted. Rows reaching past
  /// the directory's limit insert nothing (Busy). Logs ONE frame: a
  /// kInsertRun per range the inserted rows fill.
  Status InsertRows(Transaction* txn, const std::vector<Value>* rows,
                    size_t n);
  /// The one keyed write step (Update, Delete, UpdateBatch,
  /// DeleteBatch): one index probe pass and one epoch pin for the n
  /// keys, then a tail version per key, stopping at the first failure.
  /// `rows` == nullptr deletes. One key logs its record directly; more
  /// log ONE frame, and nothing is allocated per key.
  Status WriteKeys(Transaction* txn, const Value* keys, size_t n,
                   ColumnMask mask, const std::vector<Value>* rows);
  /// The table half of a tail version: the range appends it
  /// (Range::AppendVersion), then the redo records are logged and the
  /// writeset and secondary indexes updated before the chain head is
  /// released (Range::PublishVersion).
  Status WriteTailVersion(Transaction* txn, Range& r, uint32_t slot,
                          ColumnMask mask, const std::vector<Value>& row,
                          bool is_delete, RedoLog::Batch* log_sink);
  /// Queue `r` for the background merge when it asks for one.
  void MaybeScheduleMerge(Range& r);

  // Buffer-managed segment pages ---------------------------------------------

  /// The segment-page factory: build the read-optimized page of a built
  /// (or parsed) column, writing its serialized form through to the
  /// segment store (so it is evictable — and checkpointable by
  /// reference — immediately) and registering it with the pool. With no
  /// pool/store configured the page is plainly resident.
  std::shared_ptr<SegmentPage> MakeSegmentPage(
      std::unique_ptr<CompressedColumn> col);

  /// A cold page backed by already-durable store bytes (lazy restore:
  /// recovery maps segments instead of loading them). `layout` comes
  /// from the checkpoint's segment-ref frame, so the segment keeps its
  /// one-slot cold point reads across restarts.
  std::shared_ptr<SegmentPage> MakeColdSegmentPage(
      uint64_t offset, uint64_t length, uint32_t checksum,
      const CompressedColumn::Header& layout);

  // Recovery machinery (bodies in checkpoint/recovery.cc) ---------------------

  /// Replay the redo log beyond `watermark`, each append applied as
  /// the scan delivers it (opening a logging table's log), then stamp
  /// every unresolved Start Time with its logged outcome (or the
  /// aborted tombstone, seeding the outcome map with the database
  /// commit log's verdicts) through Range::Recover, rebuild indexes +
  /// Indirection, and fast-forward the clock. See RecoverDurable for
  /// `log_paths` / `commit_horizon`.
  Status ReplayAndRebuild(uint64_t watermark, const CommitOutcomes* db_commits,
                          const std::vector<std::string>* log_paths,
                          Timestamp commit_horizon);

  /// Observability (src/obs/): injected by the owning Database or
  /// owned (standalone tables). Handles used on recording paths are
  /// looked up once here and cached.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  TableCounters obs_;

  /// Set the size gauges (epoch queue depth, index, resident base and
  /// update-metadata bytes) to their sums over `tables`: the
  /// collector of a standalone table and of a database.
  static void CollectSizeGauges(MetricsRegistry& r,
                                const std::vector<const Table*>& tables);

  /// The enclosing engine whose sessions are also valid here (the
  /// owning Database); set at registration, null for standalone tables.
  TxnContext* txn_scope_ = nullptr;

  mutable EpochManager epochs_;
  /// What every range of this table shares.
  RangeContext range_ctx_;
  struct SecondaryEntry {
    ColumnId col;
    std::unique_ptr<SecondaryIndex> index;
  };
  std::vector<SecondaryEntry> secondaries_;
  mutable SpinLatch secondary_latch_;

  std::unique_ptr<MergeManager> merge_manager_;
  std::unique_ptr<RedoLog> log_;

  /// Buffer-managed base storage: injected by the owning Database via
  /// TableConfig, or owned (env-knob fallback / standalone spill).
  /// The destructor body deletes every range — and with it every
  /// segment page — before any member is destroyed, so ordering here
  /// is not load-bearing.
  std::unique_ptr<BufferPool> owned_pool_;
  std::unique_ptr<SegmentStore> owned_store_;
  BufferPool* buffer_pool_ = nullptr;
  SegmentStore* segment_store_ = nullptr;
};

}  // namespace lstore

#endif  // LSTORE_CORE_TABLE_H_
