// The engine core shared by all four engines of Section 6: L-Store
// (`Table`), L-Store (Row), In-place Update + History and Delta +
// Blocking Merge.
//
// Section 6.1 runs every engine on one transaction manager "for
// fairness", so that measured differences come from the storage
// architecture alone. This core is everything else an engine needs:
// the schema and config, the (owned or shared) transaction manager,
// the primary index, the range directory and its one range factory,
// insert row reservation, rid lookup, and the session lifecycle. Every
// commit and abort of every engine runs the one commit pipeline
// (core/commit_pipeline.cc): pre-commit, validate, durability point,
// publish, stamp, retire. An engine keeps its range layout, its write
// steps, its resolve, its scan and its merge, and supplies the
// pipeline the stamp step of one write (`StampWrite`). L-Store also
// supplies read validation and a redo log; for the comparison engines
// those steps are empty.

#ifndef LSTORE_CORE_ENGINE_CORE_H_
#define LSTORE_CORE_ENGINE_CORE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/latch.h"
#include "common/range_directory.h"
#include "common/status.h"
#include "common/types.h"
#include "core/schema.h"
#include "index/primary_index.h"
#include "txn/transaction.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

class EngineBase;
class RedoLog;
struct TableCounters;

// The commit pipeline (documented, with its defaults, in
// core/commit_pipeline.h).
Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n);
void AbortAcross(TransactionManager& tm, Transaction* txn,
                 EngineBase* const* engines, size_t n, bool durable_abort);

/// The part of the core that does not depend on the range layout: what
/// the commit pipeline sees of each participant.
class EngineBase : public TxnContext {
 public:
  /// Begin an RAII session bound to this engine: commit with
  /// txn.Commit(); a session destroyed while active aborts
  /// automatically (Section 5.1.1).
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted) {
    return Txn(this, txn_manager_->Begin(iso));
  }

  /// A read snapshot covering every currently-committed transaction,
  /// WITHOUT advancing the logical clock — scans are not events in
  /// the commit order, so they must not inflate it.
  Timestamp Now() const { return txn_manager_->SnapshotNow(); }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const TableConfig& config() const { return config_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  /// The primary index (key → base RID), read-only.
  const PrimaryIndex& primary_index() const { return primary_; }
  uint64_t num_rows() const {
    return next_row_.load(std::memory_order_acquire);
  }

 protected:
  EngineBase(std::string name, Schema schema, TableConfig config,
             TransactionManager* txn_manager)
      : name_(std::move(name)), schema_(std::move(schema)), config_(config) {
    if (txn_manager == nullptr) {
      owned_txn_manager_ = std::make_unique<TransactionManager>();
      txn_manager = owned_txn_manager_.get();
    }
    txn_manager_ = txn_manager;
  }
  ~EngineBase() = default;

  /// The snapshot a session reads: the latest committed version under
  /// read committed, else its begin time.
  static Timestamp ReadTime(const Transaction* txn) {
    return txn->isolation() == IsolationLevel::kReadCommitted
               ? kMaxTimestamp
               : txn->begin_time();
  }

  /// Argument checks of an update: a non-empty mask of known non-key
  /// columns, and `n` rows of full arity.
  Status CheckUpdate(ColumnMask mask, const std::vector<Value>* rows,
                     size_t n) const {
    if (mask == 0 || (mask & 1ull) != 0) {
      return Status::InvalidArgument("cannot update key column / empty mask");
    }
    if ((mask & ~schema_.AllColumns()) != 0) {
      return Status::InvalidArgument("mask has unknown columns");
    }
    for (size_t i = 0; i < n; ++i) {
      if (rows[i].size() != schema_.num_columns()) {
        return Status::InvalidArgument("row arity mismatch");
      }
    }
    return Status::OK();
  }

  // Steps the commit pipeline runs on each participant. The defaults
  // are the comparison engines' empty ones.

  /// Validate this engine's share of the readset at `commit_time`.
  virtual Status ValidateReads(Transaction*, Timestamp) {
    return Status::OK();
  }
  /// The redo log commit and abort records go to (null: none).
  virtual RedoLog* redo_log() { return nullptr; }
  /// Where the pipeline counts commits, aborts and its publish stage.
  virtual const TableCounters* counters() const { return nullptr; }
  /// Stamp this engine's writes with the outcome (commit time or
  /// kAbortedStamp) and unindex an aborted transaction's inserts.
  virtual void StampWrites(Transaction* txn, Value outcome) = 0;

  // Session lifecycle (TxnContext): the pipeline with this engine as
  // the only candidate.
  Status CommitTxn(Transaction* txn) override {
    EngineBase* self = this;
    return CommitAcross(*txn_manager_, txn, &self, 1);
  }
  void AbortTxn(Transaction* txn) override {
    EngineBase* self = this;
    AbortAcross(*txn_manager_, txn, &self, 1, /*durable_abort=*/false);
  }

  std::string name_;
  Schema schema_;
  TableConfig config_;
  std::unique_ptr<TransactionManager> owned_txn_manager_;
  TransactionManager* txn_manager_;
  PrimaryIndex primary_;
  std::atomic<uint64_t> next_row_{0};  ///< next base RID to hand out

 private:
  friend Status CommitAcross(TransactionManager& tm, Transaction* txn,
                             EngineBase* const* engines, size_t n);
  friend void AbortAcross(TransactionManager& tm, Transaction* txn,
                          EngineBase* const* engines, size_t n,
                          bool durable_abort);
};

template <typename Range>
class EngineCore : public EngineBase {
 public:
  uint64_t num_ranges() const { return ranges_.size(); }

 protected:
  EngineCore(std::string name, Schema schema, TableConfig config,
             TransactionManager* txn_manager)
      : EngineBase(std::move(name), std::move(schema), config, txn_manager),
        ranges_((PrimaryIndex::kMaxRid + 1) / config_.range_size) {}
  ~EngineCore() = default;

  /// Where a record lives.
  struct Located {
    Range* range = nullptr;
    uint64_t range_id = 0;
    uint32_t slot = 0;
  };

  /// The range factory: build range `id` (EnsureRange's one caller).
  virtual Range* NewRange(uint64_t id) = 0;
  /// The stamp step of one write: swap its Start Time slot (each slot
  /// of an insert run) from the transaction id to `outcome`. False when
  /// the write's versions were already consumed (merged or compressed).
  virtual bool StampWrite(Range& r, const WriteEntry& w, TxnId txn,
                          Value outcome) = 0;
  /// Called once per range in which the stamping loop stamped inserts.
  virtual void InsertsStamped(Range&) {}
  /// Unindex the keys an aborted insert entry inserted; the stamping
  /// loop calls it while the entry's slots still hold the txn id.
  virtual void EraseInserted(Range&, const WriteEntry& w) {
    primary_.Erase(w.inserted_key);
  }

  /// The CAS of a StampWrite step.
  static bool StampSlot(std::atomic<Value>* slot, TxnId txn, Value outcome) {
    slot->compare_exchange_strong(txn, outcome, std::memory_order_acq_rel);
    return true;
  }

  Range* GetRange(uint64_t id) const { return ranges_.Get(id); }
  /// The range `id`, created if absent; nullptr past the directory's
  /// limit.
  Range* EnsureRange(uint64_t id) {
    return ranges_.Ensure(id, [&] { return NewRange(id); });
  }
  uint64_t RangeOf(Rid rid) const { return rid / config_.range_size; }
  uint32_t SlotOf(Rid rid) const {
    return static_cast<uint32_t>(rid % config_.range_size);
  }

  /// The record a primary-index probe result names, or NotFound for an
  /// absent key.
  Status Locate(Rid rid, Located* at) const {
    if (rid == kInvalidRid) return Status::NotFound("no such key");
    at->range_id = RangeOf(rid);
    at->slot = SlotOf(rid);
    at->range = GetRange(at->range_id);
    if (at->range == nullptr) return Status::NotFound("no such range");
    return Status::OK();
  }

  /// Reserve the slot of a new row: a fresh rid in its (created) range,
  /// counted in the range's `occupied`, and the key indexed. The slot's
  /// Start Time is still kNull (unpublished) on return; on error it
  /// stays so and the key is not indexed.
  Status ReserveRow(const std::vector<Value>& row, Located* at) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
    Rid rid = next_row_.fetch_add(1, std::memory_order_relaxed);
    at->range_id = RangeOf(rid);
    at->slot = SlotOf(rid);
    at->range = EnsureRange(at->range_id);
    if (at->range == nullptr) return Status::Busy("range space exhausted");
    AtomicMax(at->range->occupied, at->slot + 1);
    if (!primary_.Insert(row[0], rid)) {
      return Status::AlreadyExists("duplicate key");
    }
    return Status::OK();
  }

  /// The one stamping loop, for commits and aborts alike: one step per
  /// writeset entry, so an L-Store insert run is stamped a tail page at
  /// a time (Range::Stamp). A commit runs it after the manager learns
  /// the outcome, so a reader that resolves a slot first writes the same
  /// commit time; an abort runs it before (core/commit_pipeline.cc), so
  /// no reader writes a slot and no insert merge consumes the run while
  /// EraseInserted reads its keys back.
  void StampWrites(Transaction* txn, Value outcome) override {
    Range* stamped_inserts = nullptr;
    for (const WriteEntry& w : txn->writeset()) {
      if (w.owner != this) continue;
      Range* r = GetRange(w.range_id);
      if (r == nullptr) continue;
      if (w.is_insert && outcome == kAbortedStamp) EraseInserted(*r, w);
      const bool stamped = StampWrite(*r, w, txn->id(), outcome);
      if (!w.is_insert) continue;
      if (stamped && r != stamped_inserts) {
        InsertsStamped(*r);
        stamped_inserts = r;
      }
    }
  }

  RangeDirectory<Range> ranges_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_ENGINE_CORE_H_
