// Baseline 1: In-place Update + History (Section 6.1).
//
// "A prominent storage organization is to append old versions of
// records to a history table and only retain the most recent version
// in the main table, updating it in-place" (inspired by Oracle
// Flashback Archive). Characteristics faithfully modelled:
//  * columnar main store, updated in place,
//  * standard shared/exclusive page latches — updates block readers
//    on the same page (the contention the evaluation measures),
//  * history table holds only the updated columns (the paper's
//    optimization), chained via the embedded indirection column,
//  * undo on abort restores the pre-image from the history,
//  * same transaction-manager timestamps/visibility as L-Store
//    ("for fairness, across all techniques...").

#ifndef LSTORE_BASELINES_IUH_IUH_TABLE_H_
#define LSTORE_BASELINES_IUH_IUH_TABLE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/chunked_store.h"
#include "common/config.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "core/schema.h"
#include "index/primary_index.h"
#include "txn/transaction.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

class IuhTable : public TxnContext {
 public:
  IuhTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr);
  ~IuhTable();

  /// RAII session (same surface as Table): commit via txn.Commit(),
  /// auto-abort on destruction.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  /// Non-ticking read snapshot for scans.
  Timestamp Now() const { return txn_manager_->SnapshotNow(); }

  Status Insert(Txn& txn, const std::vector<Value>& row);
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);
  Status Delete(Txn& txn, Value key);
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);
  Status SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) const;

  const Schema& schema() const { return schema_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  uint64_t num_rows() const { return next_row_.load(std::memory_order_acquire); }

  /// History entries appended so far (tests/stats).
  uint64_t history_size() const { return history_.size(); }

 private:
  // Session plumbing (TxnContext).
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  // History entry fields (flat stride layout):
  // [0]=rid, [1]=prev_idx, [2]=old_start_raw, [3]=mask|flags,
  // [4..4+ncols) = old values of updated columns (∅ elsewhere).
  static constexpr uint32_t kHistHeader = 4;
  static constexpr uint32_t kHistChunk = 4096;
  static constexpr uint32_t kHistMaxChunks = 1u << 16;  // 2^28 entries

  struct MainRange {
    MainRange(uint32_t range_size, uint32_t ncols, uint32_t page_slots);
    std::unique_ptr<std::atomic<Value>[]> data;        // range*ncols, in place
    std::unique_ptr<std::atomic<Value>[]> start;       // per record
    std::unique_ptr<std::atomic<uint64_t>[]> indirection;  // latest hist idx
    std::unique_ptr<std::atomic<uint8_t>[]> deleted;
    std::atomic<uint32_t> occupied{0};
    std::vector<RWSpinLatch> page_latches;             // per page of rows
  };

  MainRange* GetRange(uint64_t id) const;
  MainRange* EnsureRange(uint64_t id);
  RWSpinLatch& PageLatch(MainRange& r, uint32_t slot) const {
    return r.page_latches[slot / config_.base_page_slots];
  }

  std::atomic<Value>* HistSlot(uint64_t idx, uint32_t field) const {
    return history_.Slot(idx, field);
  }

  /// Under the slot's exclusive page latch: the start time a write by
  /// `txn` must save as its pre-image. False on a write-write conflict:
  /// another transaction is active, pre-committed, or aborted with its
  /// undo still pending (its pre-image is not back yet).
  bool CurrentStart(MainRange& r, uint32_t slot, Transaction* txn,
                    Value* raw) const;
  bool VisibleRaw(std::atomic<Value>* sref, Value& raw, Timestamp as_of,
                  Transaction* txn) const;
  /// Resolve (possibly via history) the visible value of columns.
  Status ResolveUnderLatch(MainRange& r, uint32_t slot, Timestamp as_of,
                           Transaction* txn, ColumnMask mask,
                           std::vector<Value>* out) const;

  Schema schema_;
  TableConfig config_;
  std::unique_ptr<TransactionManager> owned_txn_manager_;
  TransactionManager* txn_manager_;
  PrimaryIndex primary_;

  static constexpr uint64_t kMaxRanges = 1 << 16;
  std::atomic<uint64_t> next_row_{0};
  mutable SpinLatch ranges_latch_;
  std::unique_ptr<std::atomic<MainRange*>[]> ranges_;
  std::atomic<uint64_t> num_ranges_{0};

  // History table (global, append-only; reduced read locality is part
  // of the baseline's cost profile, Section 6.2). Table-wide, so its
  // directory is sized for the whole table's update history.
  ChunkedStore history_;
};

}  // namespace lstore

#endif  // LSTORE_BASELINES_IUH_IUH_TABLE_H_
