// The session core shared by the comparison engines of Section 6:
// L-Store (Row), In-place Update + History and Delta + Blocking Merge.
//
// Section 6.1 runs every engine on one transaction manager "for
// fairness", so that measured differences come from the storage
// architecture alone. This core is everything else an engine needs:
// the schema and config, the (owned or shared) transaction manager,
// the primary index, the range directory, insert row reservation,
// key lookup, and the commit/abort lifecycle. An engine keeps its
// range layout (a `Range` built as `Range(config, num_columns)` with
// an `occupied` high-water mark), one write step, its resolve, its
// scan and its merge, and names the Start Time slot of each write
// through `StartSlot`.

#ifndef LSTORE_CORE_ENGINE_CORE_H_
#define LSTORE_CORE_ENGINE_CORE_H_

#include <atomic>
#include <memory>
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

template <typename Range>
class EngineCore : public TxnContext {
 public:
  /// RAII session (same surface as Table): commit via txn.Commit(),
  /// auto-abort on destruction.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted) {
    return Txn(this, txn_manager_->Begin(iso));
  }

  /// Non-ticking read snapshot for scans.
  Timestamp Now() const { return txn_manager_->SnapshotNow(); }

  const Schema& schema() const { return schema_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  uint64_t num_rows() const {
    return next_row_.load(std::memory_order_acquire);
  }

 protected:
  EngineCore(Schema schema, TableConfig config,
             TransactionManager* txn_manager)
      : schema_(std::move(schema)),
        config_(config),
        ranges_((PrimaryIndex::kMaxRid + 1) / config_.range_size) {
    if (txn_manager == nullptr) {
      owned_txn_manager_ = std::make_unique<TransactionManager>();
      txn_manager = owned_txn_manager_.get();
    }
    txn_manager_ = txn_manager;
  }
  ~EngineCore() = default;

  /// Where a record lives.
  struct Located {
    Range* range = nullptr;
    uint64_t range_id = 0;
    uint32_t slot = 0;
  };

  /// The record `key` names, or NotFound.
  Status Locate(Value key, Located* at) const {
    Rid rid = primary_.Get(key);
    if (rid == kInvalidRid) return Status::NotFound("no such key");
    *at = At(rid);
    at->range = ranges_.Get(at->range_id);
    if (at->range == nullptr) return Status::NotFound("no range");
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
    *at = At(rid);
    at->range = ranges_.Ensure(at->range_id, [this] {
      return new Range(config_, schema_.num_columns());
    });
    if (at->range == nullptr) return Status::Busy("range space exhausted");
    AtomicMax(at->range->occupied, at->slot + 1);
    if (!primary_.Insert(row[0], rid)) {
      return Status::AlreadyExists("duplicate key");
    }
    return Status::OK();
  }

  /// The snapshot a session reads: the latest committed version under
  /// read committed, else its begin time.
  static Timestamp ReadTime(const Transaction* txn) {
    return txn->isolation() == IsolationLevel::kReadCommitted
               ? kMaxTimestamp
               : txn->begin_time();
  }

  /// Whether `mask` names an update: non-empty, key column untouched.
  static Status CheckMask(ColumnMask mask) {
    if (mask == 0 || (mask & 1ull) != 0) {
      return Status::InvalidArgument("bad mask");
    }
    return Status::OK();
  }

  /// The Start Time slot of the version `w` wrote in `r`.
  virtual std::atomic<Value>* StartSlot(Range& r, const WriteEntry& w) = 0;

  // Session lifecycle (TxnContext). Every write's Start Time slot is
  // stamped with the outcome before the id is retired.
  Status CommitTxn(Transaction* txn) override {
    if (txn->finished()) return Status::InvalidArgument("finished");
    Timestamp commit_time = txn_manager_->EnterPreCommit(txn);
    txn_manager_->MarkCommitted(txn);
    Finish(txn, commit_time);
    return Status::OK();
  }
  void AbortTxn(Transaction* txn) override {
    if (txn->finished()) return;
    txn_manager_->MarkAborted(txn);
    Finish(txn, kAbortedStamp);
  }

  Schema schema_;
  TableConfig config_;
  std::unique_ptr<TransactionManager> owned_txn_manager_;
  TransactionManager* txn_manager_;
  PrimaryIndex primary_;
  std::atomic<uint64_t> next_row_{0};
  RangeDirectory<Range> ranges_;

 private:
  Located At(Rid rid) const {
    return {nullptr, rid / config_.range_size,
            static_cast<uint32_t>(rid % config_.range_size)};
  }

  /// Stamp every write with `outcome` (a commit time or kAbortedStamp),
  /// unindex an aborted transaction's inserts, and retire it.
  void Finish(Transaction* txn, Value outcome) {
    for (const WriteEntry& w : txn->writeset()) {
      Range* r = ranges_.Get(w.range_id);
      if (r == nullptr) continue;
      Value expected = txn->id();
      StartSlot(*r, w)->compare_exchange_strong(expected, outcome,
                                                std::memory_order_acq_rel);
      if (w.is_insert && outcome == kAbortedStamp) {
        primary_.Erase(w.inserted_key);
      }
    }
    txn_manager_->Retire(txn->id());
    txn->set_finished();
  }
};

}  // namespace lstore

#endif  // LSTORE_CORE_ENGINE_CORE_H_
