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
#include "core/engine_core.h"
#include "core/schema.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

/// One range of the main store, updated in place.
struct IuhRange {
  IuhRange(const TableConfig& config, uint32_t ncols);
  std::unique_ptr<std::atomic<Value>[]> data;        // range*ncols, in place
  std::unique_ptr<std::atomic<Value>[]> start;       // per record
  std::unique_ptr<std::atomic<uint64_t>[]> indirection;  // latest hist idx
  std::unique_ptr<std::atomic<uint8_t>[]> deleted;
  std::atomic<uint32_t> occupied{0};
  std::vector<RWSpinLatch> page_latches;             // per page of rows
};

class IuhTable : public EngineCore<IuhRange> {
 public:
  IuhTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr);

  Status Insert(Txn& txn, const std::vector<Value>& row);
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);
  Status Delete(Txn& txn, Value key);
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);
  Status SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) const;

  /// History entries appended so far (tests/stats).
  uint64_t history_size() const { return history_.size(); }

 private:
  IuhRange* NewRange(uint64_t) override {
    return new IuhRange(config_, schema_.num_columns());
  }
  void StampWrite(IuhRange& r, const WriteEntry& w, TxnId txn,
                  Value outcome) override {
    StampSlot(&r.start[w.base_slot], txn, outcome);
  }
  /// Undo, then the core's abort.
  void AbortTxn(Transaction* txn) override;

  // History entry fields (flat stride layout):
  // [0]=rid, [1]=prev_idx, [2]=old_start_raw, [3]=mask|flags,
  // [4..4+ncols) = old values of updated columns (∅ elsewhere).
  static constexpr uint32_t kHistHeader = 4;
  static constexpr uint32_t kHistChunk = 4096;
  static constexpr uint32_t kHistMaxChunks = 1u << 16;  // 2^28 entries

  RWSpinLatch& PageLatch(IuhRange& r, uint32_t slot) const {
    return r.page_latches[slot / config_.base_page_slots];
  }

  std::atomic<Value>* HistSlot(uint64_t idx, uint32_t field) const {
    return history_.Slot(idx, field);
  }

  /// The one write step (Update, Delete): under the page latch, append
  /// the pre-image of the masked columns to the history, then write
  /// `row`'s masked columns in place, or mark the record deleted when
  /// `row` is null.
  Status WriteInPlace(Transaction* txn, Value key, ColumnMask mask,
                      const std::vector<Value>* row);
  /// Under the slot's exclusive page latch: the start time a write by
  /// `txn` must save as its pre-image. False on a write-write conflict:
  /// another transaction is active (or undoing) or pre-committed.
  bool CurrentStart(IuhRange& r, uint32_t slot, Transaction* txn,
                    Value* raw) const;
  /// Resolve (possibly via history) the visible value of columns.
  Status ResolveUnderLatch(IuhRange& r, uint32_t slot, Timestamp as_of,
                           Transaction* txn, ColumnMask mask,
                           std::vector<Value>* out) const;

  // History table (global, append-only; reduced read locality is part
  // of the baseline's cost profile, Section 6.2). Table-wide, so its
  // directory is sized for the whole table's update history.
  ChunkedStore history_;
};

}  // namespace lstore

#endif  // LSTORE_BASELINES_IUH_IUH_TABLE_H_
