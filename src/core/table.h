// L-Store table: the lineage-based storage architecture (Sections 2-5).
//
// One Table owns:
//  * update ranges (base page segments + tail segments + the in-place
//    Indirection column),
//  * insert ranges backed by table-level tail pages (Section 3.2),
//  * a primary index (key -> base RID) and optional secondary indexes,
//  * a background merge thread (Section 4.1) with epoch-based page
//    reclamation (Figure 6),
//  * historic compression of merged tail pages (Section 4.3),
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
#include "common/range_directory.h"
#include "common/status.h"
#include "common/types.h"
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
class HistoricStore;
class Query;
class Table;
class GroupCommitQueue;

// Forward declarations for the friend grants below; the public
// surface (documentation + default arguments) lives in
// core/commit_pipeline.h — call sites should include that header.
Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                          const std::vector<Table*>& tables,
                          GroupCommitQueue* group);
void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                       const std::vector<Table*>& tables,
                       bool durable_abort);

/// Read-optimized form of one physical column of one update range,
/// carrying its in-page lineage (Section 4.2). The payload lives in a
/// buffer-managed SegmentPage: possibly cold (evicted to the table's
/// segment store) and demand-loaded through Pin(). Merge generations
/// that leave a column untouched share the page.
struct BaseSegment {
  /// Tail-page sequence number: how many tail records of the range
  /// have been consolidated into this segment.
  uint32_t tps = 0;
  /// Number of base slots covered (== insert-merged prefix length).
  uint32_t num_slots = 0;
  std::shared_ptr<SegmentPage> page;

  /// Pin the payload (demand-loading if cold). Callers must hold an
  /// EpochGuard of the owning table for the handle's lifetime.
  PageHandle Pin() const { return PageHandle(page.get()); }

  /// One slot's value, as a point read: a cold page reads just that
  /// slot's bytes from the store instead of loading the whole column
  /// (resident pages go through Pin). Same epoch contract as Pin.
  Value Get(uint32_t slot) const {
    Value v;
    if (BufferPool::ReadColdSlot(page.get(), slot, &v)) return v;
    return Pin().Get(slot);
  }
};

/// Physical base columns beyond the data columns.
/// (The Indirection column is *not* a segment: it is the in-place
/// updated atomic array.)
enum BaseMetaColumn : uint32_t {
  kBaseStartTime = 0,   ///< original insertion commit time (preserved)
  kBaseLastUpdated = 1, ///< start time of the newest merged tail record
  kBaseSchemaEnc = 2,   ///< merged schema encoding (incl. delete flag)
};
inline constexpr uint32_t kBaseMetaColumns = 3;

class Table : public TxnContext {
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

  // --- sessions ------------------------------------------------------------

  /// Begin an RAII transaction session bound to this table: commit
  /// with txn.Commit(); a session destroyed while active aborts
  /// automatically (Section 5.1.1).
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  /// A read snapshot covering every currently-committed transaction,
  /// WITHOUT advancing the logical clock — scans are not events in
  /// the commit order, so they must not inflate it.
  Timestamp Now() const;

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

  const Schema& schema() const { return schema_; }
  const TableConfig& config() const { return config_; }
  const std::string& name() const { return name_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
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
  uint64_t num_rows() const { return next_row_.load(std::memory_order_acquire); }
  uint64_t num_ranges() const { return ranges_.size(); }
  uint32_t RangeTps(uint64_t range_id) const;
  uint32_t RangeTailLength(uint64_t range_id) const;

  /// Bytes of the primary index (key → base RID).
  size_t PrimaryIndexBytes() const { return primary_.byte_size(); }
  /// Summed byte_size() of the resident base-segment payloads (cold
  /// pages count 0).
  uint64_t BaseResidentBytes() const;
  /// Bytes of the per-slot update metadata (Indirection + ever-updated
  /// mask) of the ranges that have been updated; 0 for a table that
  /// was only loaded.
  uint64_t UpdateMetaBytes() const;

  /// For tests (Lemma 3): per-data-column TPS of a range.
  std::vector<uint32_t> RangeColumnTps(uint64_t range_id) const;

  /// Debug introspection: the version chain of a key, newest first.
  struct ChainEntry {
    uint32_t seq;
    Value raw_start;
    uint64_t schema_encoding;
    Value col_value;  ///< value of `col` in that record (∅ if absent)
  };
  std::vector<ChainEntry> DebugChain(Value key, ColumnId col) const;

  /// Recover table contents by replaying the redo log at
  /// config.log_path (call on a freshly constructed, empty table).
  Status RecoverFromLog();

  /// Full restart recovery (Section 5.1.3): load the checkpoint file
  /// (may be empty = none), replay the redo-log tail beyond
  /// `log_watermark`, resolve pending transaction outcomes, and
  /// rebuild the primary index and the Indirection column from Base
  /// RID backpointers (recovery option 2). Call on a freshly
  /// constructed, empty table. `db_commits` carries the database
  /// commit log's verdicts: cross-table transactions leave no commit
  /// record in the per-table logs, so their outcome resolves from it —
  /// on every participant or none.
  ///
  /// `log_paths` (optional) overrides the replay source with an
  /// ordered list of framed log files — the archive stitcher passes
  /// sealed segments followed by the live log, forming one
  /// LSN-continuous stream. `commit_horizon` truncates the outcome
  /// map for point-in-time restores: per-table commit records with
  /// commit_time > horizon are treated as never having committed
  /// (their tail records become aborted tombstones, exactly like a
  /// crash before the commit record).
  Status RecoverDurable(const std::string& checkpoint_file,
                        uint64_t log_watermark,
                        uint64_t checkpoint_checksum = 0,
                        const std::unordered_map<TxnId, Timestamp>*
                            db_commits = nullptr,
                        const std::vector<std::string>* log_paths = nullptr,
                        Timestamp commit_horizon = kMaxTimestamp);

  /// Columns carrying a secondary index (recorded in the checkpoint
  /// manifest so recovery can rebuild them).
  std::vector<ColumnId> SecondaryColumns() const;

 private:
  friend class MergeManager;
  friend class CheckpointIO;       ///< capture/restore (checkpoint/serde.cc)
  friend class CheckpointManager;  ///< log watermarks + truncation
  friend class Query;              ///< scan executor (core/query.cc)
  friend class Database;           ///< cross-table sessions share the ops
  friend class GroupCommitQueue;   ///< flushes log_ on behalf of commits
  friend Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                                   const std::vector<Table*>& tables,
                                   GroupCommitQueue* group);
  friend void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                                const std::vector<Table*>& tables,
                                bool durable_abort);

  // --- session plumbing (TxnContext) ---------------------------------------

  /// Single-table commit: a thin wrapper over the unified pipeline
  /// (core/commit_pipeline.cc) with {this} as the only candidate.
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  // Commit protocol phases, invoked by the pipeline.

  /// Validate this table's share of the readset at `commit_time`.
  Status ValidateReads(Transaction* txn, Timestamp commit_time);
  /// Append + flush the commit record to this table's redo log.
  Status WriteCommitRecord(Transaction* txn, Timestamp commit_time);
  /// Append the commit record WITHOUT flushing — the group-commit
  /// queue performs the (shared) flush. Returns its LSN (0 = no log).
  uint64_t AppendCommitRecord(Transaction* txn, Timestamp commit_time);
  /// Append an abort record; `flush` pushes it to the OS (fsync under
  /// sync_commit). The flush matters ONLY when the durability step
  /// already appended/flushed a commit record for this transaction
  /// (per-table record whose pipeline failed later, or a commit-log
  /// record whose flush failed) — replay treats the later abort as
  /// authoritative, so it must not sit in the buffer when the process
  /// dies. Ordinary aborts (user abort, validation failure) skip the
  /// flush: with no commit record anywhere, replay aborts them anyway.
  void WriteAbortRecord(Transaction* txn, bool flush);
  /// Stamp this table's writes with the outcome (commit time or
  /// kAbortedStamp); rolls back inserted index keys on abort.
  void StampWrites(Transaction* txn, Value outcome);

  /// Update metadata of one base record. The two words are
  /// interleaved so an updated row's pair shares a cache line.
  struct SlotMeta {
    /// The in-place Indirection column (latch bit + latest tail seq).
    std::atomic<uint64_t> indirection{0};
    /// Ever-updated column mask (base Schema Encoding, maintained
    /// under the indirection latch).
    std::atomic<uint64_t> ever_updated{0};

    /// Chain head of `slot` in a range's array; a null array (the
    /// range was never updated) reads 0.
    static uint32_t HeadSeq(const SlotMeta* meta, uint32_t slot) {
      return meta == nullptr ? 0
                             : IndirSeq(meta[slot].indirection.load(
                                   std::memory_order_acquire));
    }
  };

  struct Range {
    uint64_t id = 0;
    /// Slots per range (the length of the `meta` array).
    uint32_t size = 0;
    /// Inserted slots (monotone).
    std::atomic<uint32_t> occupied{0};
    /// Slots covered by base segments (insert-merged prefix).
    std::atomic<uint32_t> based{0};
    /// One SlotMeta per slot, installed by the range's first update
    /// (EnsureMeta). Null means no slot was ever updated: every
    /// Indirection word and every ever-updated mask reads 0.
    std::atomic<SlotMeta*> meta{nullptr};
    /// Table-level tail pages (inserts; all columns materialized).
    TailSegment inserts;
    /// Regular tail pages (updates; lazy per-column allocation).
    TailSegment updates;
    /// Base segments: [0..num_cols) data, then kBaseMetaColumns.
    std::vector<std::atomic<BaseSegment*>> base;
    /// Highest TPS across segments (merge bookkeeping).
    std::atomic<uint32_t> merged_tps{0};
    /// Tail seqs < boundary live in the historic store.
    std::atomic<uint32_t> historic_boundary{1};
    std::atomic<HistoricStore*> historic{nullptr};
    /// Set while queued for background merge.
    std::atomic<bool> queued{false};
    /// Serializes merges of this range.
    SpinLatch merge_latch;

    Range(uint64_t id, uint32_t range_size, uint32_t num_cols,
          uint32_t tail_page_slots);
    /// Frees the slot metadata, base segments and historic store.
    ~Range();

    /// The installed metadata array, allocating it on first use. Racing
    /// callers install one array; the losers free theirs.
    SlotMeta* EnsureMeta();
  };

  // Internal read machinery -------------------------------------------------

  struct ReadSpec {
    Timestamp as_of;        ///< kMaxTimestamp = latest committed
    Transaction* txn;       ///< may be null (pure snapshot read)
    bool speculative;       ///< allow pre-commit versions
  };

  /// The record a primary-index probe result names: its range and
  /// slot, or NotFound for an absent key.
  Status Locate(Rid rid, Range** r, uint32_t* slot) const;
  /// A session read's spec: the latest committed version under read
  /// committed, else the transaction's begin snapshot.
  static ReadSpec SessionSpec(Transaction* txn, bool speculative);
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

  Range* GetRange(uint64_t id) const { return ranges_.Get(id); }
  /// The range `id`, created if absent; nullptr past kMaxRanges.
  Range* EnsureRange(uint64_t id);
  uint64_t RangeOf(Rid rid) const { return rid / config_.range_size; }
  uint32_t SlotOf(Rid rid) const {
    return static_cast<uint32_t>(rid % config_.range_size);
  }

  /// Resolve the visible version of (range, slot): fills out[col] for
  /// the requested mask; reports the visible version's seq (0 = base)
  /// and whether the record is deleted / not visible.
  Status ResolveRecord(Range& r, uint32_t slot, const ReadSpec& spec,
                       ColumnMask needed, std::vector<Value>* out,
                       uint32_t* observed_seq) const;
  Status ResolveRecordOnce(Range& r, uint32_t slot, const ReadSpec& spec,
                           ColumnMask needed, std::vector<Value>* out,
                           uint32_t* observed_seq, bool* consistent) const;

  /// Value of a base (pre-update) column: from the base segment when
  /// the slot is insert-merged, else from the table-level tail pages.
  Value BaseValue(const Range& r, uint32_t slot, uint32_t physical_col) const;
  Value BaseDataValue(const Range& r, uint32_t slot, ColumnId col) const {
    return BaseValue(r, slot, col);
  }
  Value BaseMetaValue(const Range& r, uint32_t slot, uint32_t meta) const {
    return BaseValue(r, slot, schema_.num_columns() + meta);
  }
  /// Raw (possibly txn-id) start time of the base record.
  Value BaseStartRaw(const Range& r, uint32_t slot) const;
  std::atomic<Value>* BaseStartSlot(Range& r, uint32_t slot) const;

  BaseSegment* Segment(const Range& r, uint32_t physical_col) const {
    return r.base[physical_col].load(std::memory_order_acquire);
  }

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
  /// kMaxRanges insert nothing (Busy). Logs ONE frame: a kInsertRun
  /// per range the inserted rows fill.
  Status InsertRows(Transaction* txn, const std::vector<Value>* rows,
                    size_t n);
  /// Argument checks of Update and UpdateBatch: a non-empty mask of
  /// known non-key columns, and rows of full arity.
  Status CheckUpdate(ColumnMask mask, const std::vector<Value>* rows,
                     size_t n) const;
  /// The one keyed write step (Update, Delete, UpdateBatch,
  /// DeleteBatch): one index probe pass and one epoch pin for the n
  /// keys, then a tail version per key, stopping at the first failure.
  /// `rows` == nullptr deletes. One key logs its record directly; more
  /// log ONE frame, and nothing is allocated per key.
  Status WriteKeys(Transaction* txn, const Value* keys, size_t n,
                   ColumnMask mask, const std::vector<Value>* rows);
  Status WriteTailVersion(Transaction* txn, Range& r, uint32_t slot,
                          ColumnMask mask, const std::vector<Value>& row,
                          bool is_delete, RedoLog::Batch* log_sink);
  void LogTailAppend(const Range& r, uint32_t seq, Value start_raw,
                     TxnId txn_id,
                     RedoLog::Batch* log_sink);
  void MaybeScheduleMerge(Range& r);

  // Merge machinery (called by MergeManager and *_Now) -----------------------

  bool RunUpdateMerge(Range& r, ColumnMask data_cols, bool all_columns);
  bool RunInsertMerge(Range& r);
  size_t RunHistoricCompression(Range& r);

  // Buffer-managed segment pages ---------------------------------------------

  /// Build the read-optimized page for `vals`: writes its serialized
  /// form through to the segment store (so it is evictable — and
  /// checkpointable by reference — immediately) and registers it with
  /// the pool. With no pool/store configured the page is plainly
  /// resident, as before.
  std::shared_ptr<SegmentPage> MakeSegmentPage(std::vector<Value> vals) {
    return MakeSegmentPage(CompressedColumn::Build(
        std::move(vals), config_.compress_merged_pages));
  }
  /// The same for an already built (or parsed) column.
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

  /// Replay the redo log beyond `watermark`, stamp every unresolved
  /// Start Time with its logged outcome (or the aborted tombstone,
  /// seeding the outcome map with the database commit log's verdicts),
  /// rebuild indexes + Indirection, and fast-forward the clock.
  /// See RecoverDurable for `log_paths` / `commit_horizon`.
  Status ReplayAndRebuild(uint64_t watermark,
                          const std::unordered_map<TxnId, Timestamp>*
                              db_commits = nullptr,
                          const std::vector<std::string>* log_paths = nullptr,
                          Timestamp commit_horizon = kMaxTimestamp);

  std::string name_;
  Schema schema_;
  TableConfig config_;

  /// Observability (src/obs/): injected by the owning Database or
  /// owned (standalone tables). Handles used on recording paths are
  /// looked up once here and cached — the hot paths never take the
  /// registry mutex.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  struct MetricHandles {
    Histogram* merge_update_ns = nullptr;    ///< update-merge duration
    Histogram* merge_insert_ns = nullptr;    ///< insert-merge duration
    Histogram* merge_historic_ns = nullptr;  ///< historic compression
    Histogram* query_partition_ns = nullptr; ///< per-partition scan time
    Counter* merge_rows = nullptr;           ///< tail records consolidated
    Counter* insert_rows_merged = nullptr;   ///< insert rows based
    Counter* historic_versions = nullptr;    ///< versions moved to historic
    Histogram* commit_publish_ns = nullptr;  ///< state flip + write stamping
    Counter* commits = nullptr;              ///< pipeline commits
    Counter* aborts = nullptr;               ///< pipeline aborts
    Counter* reads = nullptr;                ///< located point reads
    Counter* inserts = nullptr;
    Counter* updates = nullptr;              ///< update tail versions
    Counter* deletes = nullptr;
    Counter* ww_conflicts = nullptr;         ///< write-write conflicts
    Counter* validation_aborts = nullptr;
    Counter* tail_chain_hops = nullptr;      ///< reads that left base pages
    Counter* segments_retired = nullptr;
    Counter* update_merges = nullptr;
    Counter* insert_merges = nullptr;
    Counter* historic_compressions = nullptr;
  } obs_;

  /// Set the size gauges (epoch queue depth, index, resident base and
  /// update-metadata bytes) to their sums over `tables`: the
  /// collector of a standalone table and of a database.
  static void CollectSizeGauges(MetricsRegistry& r,
                                const std::vector<const Table*>& tables);

  /// The enclosing engine whose sessions are also valid here (the
  /// owning Database); set at registration, null for standalone tables.
  TxnContext* txn_scope_ = nullptr;

  /// The owning database's group-commit queue: single- and cross-table
  /// commits on this table share fsyncs through it (null for
  /// standalone tables and in-memory databases — inline flush).
  GroupCommitQueue* group_commit_ = nullptr;

  std::unique_ptr<TransactionManager> owned_txn_manager_;
  TransactionManager* txn_manager_;

  mutable EpochManager epochs_;
  PrimaryIndex primary_;
  struct SecondaryEntry {
    ColumnId col;
    std::unique_ptr<SecondaryIndex> index;
  };
  std::vector<SecondaryEntry> secondaries_;
  mutable SpinLatch secondary_latch_;

  std::atomic<uint64_t> next_row_{0};  ///< next base RID to hand out

  /// Two-level range directory with lock-free reads (Range ids past
  /// kMaxRanges are refused).
  RangeDirectory<Range> ranges_;
  static constexpr uint64_t kMaxRanges = RangeDirectory<Range>::kCapacity;

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
