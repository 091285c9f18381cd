// One update range: L-Store's unit of lineage (Sections 2-5).
//
// A Range owns what the paper keeps per range of base records: the
// base segments with their TPS (tail-page sequence number), the
// append-only tail pages of its updates, the table-level tail pages of
// its inserts (Section 3.2), the in-place Indirection column and the
// historic store (Section 4.3). Reads, writes, merges (Section 4.1),
// historic compression, checkpoint capture and restore, and redo
// replay (Section 5.1.3) all act on one range through the operations
// below; its state is private.
//
// Lineage metadata costs one 8-byte Indirection word per slot of an
// updated range (12 bytes in tables wider than 39 columns) and three
// words per tail record (tail_segment.h).
//
// Thread safety: reads never latch; a writer latches one record through
// its Indirection word (Section 5.1.1); merges, historic compression
// and checkpoint capture serialize on the range's merge latch.

#ifndef LSTORE_CORE_RANGE_H_
#define LSTORE_CORE_RANGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_handle.h"
#include "common/bitutil.h"
#include "common/config.h"
#include "common/epoch.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/compressed_column.h"
#include "storage/tail_segment.h"
#include "txn/transaction.h"
#include "txn/transaction_manager.h"

namespace lstore {

class HistoricStore;

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

/// Which versions a read sees.
struct ReadSpec {
  Timestamp as_of;        ///< kMaxTimestamp = latest committed
  Transaction* txn;       ///< may be null (pure snapshot read)
  bool speculative;       ///< allow pre-commit versions
};

/// A table's metric handles, looked up once so the hot paths never
/// take the registry mutex.
struct TableCounters {
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
};

/// What every range of one table shares, owned by the table.
struct RangeContext {
  uint32_t num_columns = 0;
  /// The columns an insert record materializes (every one, up to 64).
  ColumnMask all_columns = 0;
  const TableConfig* config = nullptr;
  TransactionManager* txn_manager = nullptr;
  EpochManager* epochs = nullptr;
  /// The table's segment-page factory (Table::MakeSegmentPage).
  std::function<std::shared_ptr<SegmentPage>(std::unique_ptr<CompressedColumn>)>
      make_page;
  const TableCounters* obs = nullptr;
};

/// A range's two kinds of tail pages: the table-level ones of inserts
/// (record slot + 1 holds base slot `slot`) and the update tail pages.
enum class TailKind : uint8_t { kInsert, kUpdate };

/// One tail record, as the one reader returns it and the one writer
/// takes it. An insert record materializes every column; an update
/// record the columns of its Schema Encoding. Positions are 64-bit, as
/// read from a file, so that Range::Apply checks them untruncated.
struct TailRecord {
  uint64_t seq = 0;
  uint64_t backptr = 0;     ///< previous version's seq (0 = base)
  uint64_t base_slot = 0;
  uint64_t encoding = 0;
  Value start = kNull;      ///< commit time, txn id or aborted stamp
  ColumnMask cols = 0;
  Value values[64] = {};    ///< one per set bit of `cols`, low to high

  /// Column `c`'s value (∅ when the record does not carry it).
  Value Get(ColumnId c) const {
    return c < 64 && (cols >> c & 1) != 0
               ? values[PopCount(cols & ((1ull << c) - 1))]
               : kNull;
  }
};

/// The lineage watermarks a checkpoint records per range (64-bit, as
/// read from a file, so that restore checks them untruncated).
struct RangeState {
  uint64_t occupied = 0;  ///< inserted slots
  uint64_t based = 0;     ///< insert-merged prefix
  uint64_t tps = 0;       ///< highest merged tail seq
  uint64_t boundary = 0;  ///< tail seqs below live in the historic store
  uint64_t last = 0;      ///< highest tail seq reserved
};

class Range {
 public:
  Range(uint64_t id, const RangeContext* ctx);
  /// Frees the slot metadata, base segments and historic store.
  ~Range();
  Range(const Range&) = delete;
  Range& operator=(const Range&) = delete;

  uint64_t id() const { return id_; }
  uint32_t occupied() const {
    return occupied_.load(std::memory_order_acquire);
  }
  uint32_t merged_tps() const {
    return merged_tps_.load(std::memory_order_acquire);
  }
  /// Highest update tail seq reserved.
  uint32_t tail_length() const { return updates_.LastSeq(); }

  // --- reads ----------------------------------------------------------------
  // Callers hold the table's epoch pin.

  /// Resolve the version of `slot` that `spec` sees (the 2-hop read of
  /// Section 2.2): fills out[col] for `needed`, reports the version's
  /// seq (0 = base record) and NotFound for a deleted or invisible one.
  /// An inconsistent read (Lemma 3) is retried (Theorem 2).
  Status Resolve(uint32_t slot, const ReadSpec& spec, ColumnMask needed,
                 std::vector<Value>* out, uint32_t* observed_seq);

  /// The newest merge generation of the base segments, pinned for a
  /// scan; defined below.
  class MergedView;

  // --- writes ---------------------------------------------------------------

  /// Fill `count` reserved insert slots from `slot0` with rows[0,
  /// filled) stamped `txn`; the rest are burned with the aborted stamp.
  /// One page run at a time, nothing allocated per row.
  void FillInserts(uint32_t slot0, const std::vector<Value>* rows,
                   size_t count, size_t filled, TxnId txn);

  /// The tail records AppendVersion wrote.
  struct TailVersion {
    uint32_t snap_seq = 0;  ///< pre-image snapshot (0 = none)
    Value snap_start = 0;   ///< its start time, copied from the base
    uint32_t seq = 0;       ///< the new version
  };
  /// Latch `slot`'s Indirection word, check for write-write conflicts
  /// and deleted records, and append the new version (after a pre-image
  /// snapshot on a column's first update), start times published. On
  /// OK the record stays latched until PublishVersion.
  Status AppendVersion(Transaction* txn, uint32_t slot, ColumnMask mask,
                       const std::vector<Value>& row, bool is_delete,
                       TailVersion* v);
  /// Mark `mask` ever updated and release the latch with `seq` as the
  /// new chain head in one store: the only in-place update of the
  /// architecture.
  void PublishVersion(uint32_t slot, uint32_t seq, ColumnMask mask);

  /// Stamp the records a writeset entry names (an update or a run of
  /// inserts) with their outcome (commit time or kAbortedStamp) unless
  /// they hold another value. False when all were consumed already:
  /// insert-merged inserts or an update in the historic store.
  bool Stamp(const WriteEntry& w, TxnId txn, Value outcome);

  /// The one tail-record reader. `settle` resolves the start time as a
  /// checkpoint must: decided outcomes are stamped and a pre-committing
  /// writer is waited out.
  TailRecord ReadRecord(TailKind kind, uint32_t seq, bool settle = false);

  /// Whether the range now needs a merge that is not queued yet (marks
  /// it queued); ReleaseMergeTrigger re-arms it.
  bool TakeMergeTrigger();
  void ReleaseMergeTrigger() {
    queued_.store(false, std::memory_order_release);
  }

  // --- maintenance (serialized by the merge latch) --------------------------

  /// Insert-merge (Section 3.2): turn the decided prefix of the
  /// table-level tail pages into base segments.
  bool InsertMerge();
  /// Update merge (Algorithm 1) of `data_cols`; a partial merge only
  /// advances the merged columns' TPS (Section 4.2, Lemma 3).
  bool UpdateMerge(ColumnMask data_cols, bool all_columns);
  /// Move the merged tail records into the historic store (Section
  /// 4.3). Returns the number of versions moved.
  size_t CompressHistoric();

  // --- durability (Section 5.1.3) -------------------------------------------

  /// Run `fn(state)` under the merge latch: base segments, TPS, the
  /// based prefix and the historic boundary stay put meanwhile.
  template <typename Fn>
  Status Capture(Fn&& fn) {
    SpinGuard g(merge_latch_);
    return fn(State());
  }
  const BaseSegment* segment(uint32_t physical_col) const {
    return base_[physical_col].load(std::memory_order_acquire);
  }
  const HistoricStore* historic() const {
    return historic_.load(std::memory_order_acquire);
  }

  /// Restore the watermarks of a checkpointed range; Corruption for a
  /// state no range can reach.
  Status RestoreState(const RangeState& s);
  /// Install a base segment, retiring the one it replaces.
  void InstallSegment(uint32_t physical_col, BaseSegment* seg);
  void InstallHistoric(HistoricStore* hist);
  /// The one apply path of redo replay and checkpoint restore: write a
  /// tail record at its seq, its start time last. Corruption for a
  /// record no writer produces (a seq out of range, a backpointer not
  /// below its seq, a slot past the range, columns past the schema).
  Status Apply(TailKind kind, const TailRecord& rec);
  /// Recovery steps 3 and 4 for this range: stamp every start time
  /// still holding a txn id with its outcome in `commits` (aborted when
  /// absent): the one outcome resolver of restart, covering every
  /// record Apply wrote. Then rebuild the Indirection column and
  /// ever-updated masks, and fill `keys` and `rids` with the key and
  /// RID of every live row. Raises *max_time to the newest commit time
  /// seen.
  void Recover(const std::unordered_map<TxnId, Timestamp>& commits,
               std::vector<Value>* keys, std::vector<Rid>* rids,
               Timestamp* max_time);

  // --- introspection --------------------------------------------------------

  /// Per-data-column TPS (Lemma 3 tests).
  std::vector<uint32_t> ColumnTps() const;
  /// Summed resident bytes of the base-segment payloads.
  uint64_t ResidentBytes() const;
  /// Bytes of the per-slot update metadata: 0 until the first update.
  uint64_t MetaBytes() const {
    const SlotMeta* meta = meta_.load(std::memory_order_acquire);
    return meta == nullptr ? 0
                           : uint64_t{ctx_->config->range_size} *
                                 (meta->high != nullptr ? 12 : 8);
  }
  /// Bytes of the allocated tail pages, inserts and updates.
  uint64_t TailBytes() const {
    return uint64_t{inserts_.allocated_pages() + updates_.allocated_pages()} *
           ctx_->config->tail_page_slots * sizeof(Value);
  }
  struct ChainEntry {
    uint32_t seq;
    Value raw_start;
    uint64_t schema_encoding;
    Value col_value;  ///< value of `col` in that record (∅ if absent)
  };
  /// The version chain of `slot` above the historic boundary, newest
  /// first.
  std::vector<ChainEntry> DebugChain(uint32_t slot, ColumnId col);

 private:
  /// The Indirection column of an updated range (types.h): one word
  /// per slot holding the latch, the chain head and the ever-updated
  /// bits of columns 0-38 (the base Schema Encoding, maintained under
  /// the latch), plus, only in tables wider than 39 columns, the higher
  /// columns' bits in a side array, published before the word.
  struct SlotMeta {
    SlotMeta(uint32_t slots, bool wide)
        : word(new std::atomic<uint64_t>[slots]()),
          high(wide ? new std::atomic<uint32_t>[slots]() : nullptr) {}

    /// Chain head of `slot` in a range's metadata; a null one (the
    /// range was never updated) reads 0.
    static uint32_t HeadSeq(const SlotMeta* meta, uint32_t slot) {
      return meta == nullptr ? 0
                             : IndirSeq(meta->word[slot].load(
                                   std::memory_order_acquire));
    }
    /// Ever-updated columns of `slot`, given its word `w`.
    ColumnMask Ever(uint32_t slot, uint64_t w) const {
      return IndirEver(w) |
             (high == nullptr ? 0
                              : ColumnMask{high[slot].load(
                                    std::memory_order_acquire)}
                                    << kIndirEverColumns);
    }
    /// Store `slot`'s word unlatched, with chain head `seq` and `mask`
    /// added to its ever-updated columns (side-array bits set first).
    /// The latch holder (or recovery, alone) is the word's only writer.
    void Publish(uint32_t slot, uint32_t seq, ColumnMask mask) {
      if (high != nullptr && (mask >> kIndirEverColumns) != 0) {
        high[slot].fetch_or(static_cast<uint32_t>(mask >> kIndirEverColumns),
                            std::memory_order_relaxed);
      }
      const uint64_t w = word[slot].load(std::memory_order_relaxed);
      word[slot].store(IndirWord(seq, IndirEver(w) | mask),
                       std::memory_order_release);
    }

    std::unique_ptr<std::atomic<uint64_t>[]> word;
    std::unique_ptr<std::atomic<uint32_t>[]> high;  ///< columns 39 and up
  };

  Status ResolveOnce(uint32_t slot, const ReadSpec& spec, ColumnMask needed,
                     std::vector<Value>* out, uint32_t* observed_seq,
                     bool* consistent);
  /// The installed metadata array, allocating it on first use. Racing
  /// callers install one array; the losers free theirs.
  SlotMeta* EnsureMeta();
  /// Value of a base (pre-update) column: from the base segment when
  /// the slot is insert-merged, else from the table-level tail pages.
  Value BaseValue(uint32_t slot, uint32_t physical_col) const;
  Value BaseMeta(uint32_t slot, uint32_t meta) const {
    return BaseValue(slot, ctx_->num_columns + meta);
  }
  TailSegment& Tail(TailKind kind) {
    return kind == TailKind::kInsert ? inserts_ : updates_;
  }
  /// The one tail-record writer: the values of rec.cols, the metadata,
  /// then the start time, published last.
  void WriteRecord(TailKind kind, const TailRecord& rec);
  /// The merge prefix's page directory swap (Figure 6, steps 4/5):
  /// publish `fresh` and retire the replaced segments.
  void InstallSegments(const std::vector<BaseSegment*>& fresh);
  /// Watermarks as a checkpoint records them.
  RangeState State() const;

  const uint64_t id_;
  const RangeContext* const ctx_;
  /// Inserted slots (monotone).
  std::atomic<uint32_t> occupied_{0};
  /// Slots covered by base segments (insert-merged prefix).
  std::atomic<uint32_t> based_{0};
  /// The Indirection column, installed by the range's first update
  /// (EnsureMeta). Null means no slot was ever updated: every
  /// Indirection word and every ever-updated mask reads 0.
  std::atomic<SlotMeta*> meta_{nullptr};
  /// Table-level tail pages (inserts; all columns materialized).
  TailSegment inserts_;
  /// Regular tail pages (updates; lazy per-column allocation).
  TailSegment updates_;
  /// Base segments: [0..num_cols) data, then kBaseMetaColumns.
  std::vector<std::atomic<BaseSegment*>> base_;
  /// Highest TPS across segments (merge bookkeeping).
  std::atomic<uint32_t> merged_tps_{0};
  /// Tail seqs < boundary live in the historic store.
  std::atomic<uint32_t> historic_boundary_{1};
  std::atomic<HistoricStore*> historic_{nullptr};
  /// Set while queued for background merge.
  std::atomic<bool> queued_{false};
  /// Lowest seq Apply wrote, per TailKind (recovery runs on one
  /// thread): Recover settles from there.
  uint32_t applied_low_[2] = {UINT32_MAX, UINT32_MAX};
  /// Serializes merges of this range.
  SpinLatch merge_latch_;
};

/// Merged fast path of a scan (Section 4.2): every needed data column
/// and the lineage metadata from ONE merge generation — mixed
/// generations are the inconsistent read of Lemma 3, left to Resolve's
/// chain walk (Theorem 2). Every segment is PINNED for the view's
/// lifetime: the cursors read the compressed payloads directly, and the
/// pins keep the eviction sweep away (demand-loading cold pages once
/// per view, not once per slot). The caller holds the epoch pin.
class Range::MergedView {
 public:
  MergedView(const Range& r, ColumnMask needed);

  /// Whether `slot` is based in this generation with no tail record
  /// past it.
  bool Covers(uint32_t slot) const {
    return slot < slots_ &&
           (word_ == nullptr ||
            IndirSeq(word_[slot].load(std::memory_order_acquire)) <= tps_);
  }
  Value LastUpdated(uint32_t slot) { return lut_.At(slot); }
  Value Start(uint32_t slot) { return start_.At(slot); }
  Value Encoding(uint32_t slot) { return enc_.At(slot); }
  Value Data(ColumnId col, uint32_t slot) { return data_[col].At(slot); }

 private:
  uint32_t tps_ = 0;
  uint32_t slots_ = 0;  ///< 0 = no consistent generation
  /// The Indirection words, loaded once (null: the range was never
  /// updated).
  const std::atomic<uint64_t>* word_ = nullptr;
  std::vector<PageHandle> pins_;
  CompressedColumn::Cursor lut_, enc_, start_;
  std::vector<CompressedColumn::Cursor> data_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_RANGE_H_
