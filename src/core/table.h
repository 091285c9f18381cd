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
//  * a background merge queue (Section 4.1, Figure 5): writers hand
//    ranges to a serial queue of tasks on the shared pool, which
//    merges one range at a time, with epoch-based page reclamation
//    (Figure 6), and the segment-page factory,
//  * redo-only logging to its Database's log, with crash recovery
//    (Section 5.1.3).
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
#include "common/thread_pool.h"
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

class Heartbeat;
class Query;

/// Recovered transaction outcomes: the commit time of every
/// transaction that committed (absent = aborted or never finished).
using CommitOutcomes = std::unordered_map<TxnId, Timestamp>;

/// The one outcome fold of recovery (restart and point-in-time
/// restore), fed by every commit and abort record of the redo stream
/// in LSN order: a commit at or before `horizon` records its commit
/// time; a later abort is authoritative.
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

  /// Wait until every queued merge task has run.
  void WaitForMergeQueue() { merges_.Drain(); }

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

  /// Columns carrying a secondary index (recorded in the checkpoint
  /// manifest so recovery can rebuild them).
  std::vector<ColumnId> SecondaryColumns() const;

 private:
  // The commit pipeline needs no grant: it reaches a table through the
  // engine steps below, which EngineBase (core/engine_core.h) declares.
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
  /// An insert run's keys are column 0 of its tail records.
  void EraseInserted(Range& r, const WriteEntry& w) override {
    for (uint32_t seq = w.seq; seq < w.seq + w.count; ++seq) {
      primary_.Erase(r.ReadRecord(TailKind::kInsert, seq).Get(0));
    }
  }
  /// The core's stamping loop under an epoch pin: without it, an
  /// insert-merge (or historic compression) that already resolved the
  /// transaction's outcome via the manager could reclaim tail pages
  /// under the loop.
  void StampWrites(Transaction* txn, Value outcome) override {
    EpochGuard guard(epochs_);
    EngineCore::StampWrites(txn, outcome);
  }
  Status ValidateReads(Transaction* txn, Timestamp commit_time) override;
  RedoLog* redo_log() override { return log_; }
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
  /// The merge task (Section 4.1): release the range's trigger, then
  /// insert-merge, update-merge and reclaim, busy on `merge_hb_`.
  void RunMerge(uint64_t range_id);

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

  /// The tables one redo stream carries, by the id their records name.
  using LogTables = std::unordered_map<uint64_t, Table*>;

  /// Step 2 of recovery, one scan of one redo stream. Each append
  /// beyond `watermark` goes, as the scan delivers it, to the table its
  /// id names; ids missing from `tables` (dropped tables) are skipped.
  /// Every commit and abort record folds into `commits` (FoldOutcome,
  /// up to `horizon`). With `live`, the log at paths[0] opens for
  /// appending and its open-time scan is the replay; without, every
  /// file of `paths` (a restore's stitched stream) is only read.
  static Status ReplayLog(const LogTables& tables, uint64_t watermark,
                          Timestamp horizon, RedoLog* live,
                          const std::vector<std::string>& paths,
                          CommitOutcomes* commits);
  /// Apply one replayed append record (`scratch`: its tail record).
  Status ApplyLogged(const LogRecord& rec, TailRecord* scratch);
  /// Steps 3 and 4: resolve every raw Start Time against `commits`
  /// (Range::Recover; no outcome = aborted tombstone), rebuild the
  /// primary index and Indirection, and fast-forward the clock.
  Status ResolveAndRebuild(const CommitOutcomes& commits);

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

  /// "merge:<table>" actor, busy per merge task (null: no health
  /// registry, or merges off).
  std::shared_ptr<Heartbeat> merge_hb_;
  /// Merge tasks, one at a time; stopped first in ~Table.
  SerialQueue merges_;
  /// The redo log this table appends to: its Database's one log, in
  /// which its records carry `log_id_`, its catalog id (null: an
  /// in-memory table, which logs nothing).
  RedoLog* log_ = nullptr;
  uint64_t log_id_ = 0;

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
