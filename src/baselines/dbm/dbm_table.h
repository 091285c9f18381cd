// Baseline 2: Delta + Blocking Merge (Section 6.1).
//
// "Inspired by HANA [15], where it consists of a main store and a
// delta store, and undergoes a periodic merging ... the periodic
// merging requires the draining of all active transactions before the
// merge begins and after the merge ends." Paper optimizations
// retained: columnar delta holding only updated columns, and range
// partitioning of the delta store (a separate delta per record range).
//
// The blocking drain is the measured contrast with L-Store's
// contention-free merge: every transaction (including scans) enters a
// gate at begin and exits at commit/abort; a merge closes the gate,
// waits for the active count to reach zero, rewrites the main store
// and clears the delta, then reopens.

#ifndef LSTORE_BASELINES_DBM_DBM_TABLE_H_
#define LSTORE_BASELINES_DBM_DBM_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/chunked_store.h"
#include "common/config.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "core/schema.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

/// One range: a read-only main store and its delta.
struct DbmRange {
  // Delta entry stride layout:
  // [0]=start_raw, [1]=prev_idx, [2]=slot, [3]=mask, [4..4+ncols).
  static constexpr uint32_t kDeltaHeader = 4;
  static constexpr uint32_t kDeltaChunk = 1024;
  static constexpr uint32_t kDeltaMaxChunks = 1u << 12;  // 2^22 per range

  DbmRange(const TableConfig& config, uint32_t ncols);
  /// Read-only main store (rewritten wholesale by merges, which run
  /// with all transactions drained, so plain storage suffices).
  std::vector<Value> data;   // range*ncols
  std::vector<Value> start;  // per record commit times
  std::vector<uint8_t> deleted;
  std::unique_ptr<std::atomic<uint64_t>[]> indirection;  // delta idx
  std::atomic<uint32_t> occupied{0};
  ChunkedStore delta;  // cleared by each merge
  std::atomic<bool> queued{false};
};

class DbmTable : public EngineCore<DbmRange> {
 public:
  DbmTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr);
  ~DbmTable();

  /// Begin enters the transaction gate; commit and abort exit it.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  Status Insert(Txn& txn, const std::vector<Value>& row);
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);
  /// Delete: appends a delta entry flagged as a tombstone; merge
  /// marks the main-store record deleted.
  Status Delete(Txn& txn, Value key);
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);
  Status SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum);

  /// Merge one range's delta into its main store, draining all active
  /// transactions (the blocking behaviour under test). Exposed for
  /// tests; normally a background task on the shared pool.
  bool MergeRange(uint64_t range_id);

  uint64_t merges_performed() const {
    return merges_.load(std::memory_order_acquire);
  }
  uint64_t drain_waits_us() const {
    return drain_wait_us_.load(std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kDeltaHeader = DbmRange::kDeltaHeader;

  DbmRange* NewRange(uint64_t) override {
    return new DbmRange(config_, schema_.num_columns());
  }
  void StampWrite(DbmRange& r, const WriteEntry& w, TxnId txn,
                  Value outcome) override {
    StampSlot(r.delta.Slot(w.seq, 0), txn, outcome);
  }
  /// Queue the range's merge once its delta reached the threshold.
  void WritesStamped(DbmRange& r, uint64_t id) override;
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  // Transaction gate (drain machinery).
  void GateEnter();
  void GateExit();

  /// The one write step (Update, Delete): append a delta entry with
  /// `row`'s masked columns, or a tombstone when `row` is null.
  Status WriteDelta(Transaction* txn, Value key, ColumnMask mask,
                    const std::vector<Value>* row);
  Status ResolveRecord(DbmRange& r, uint32_t slot, Timestamp as_of,
                       Transaction* txn, ColumnMask mask,
                       std::vector<Value>* out);

  // Gate state.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  uint64_t active_txns_ = 0;
  bool merge_pending_ = false;

  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> drain_wait_us_{0};

  /// Background merge tasks, one range at a time; stopped first in
  /// ~DbmTable.
  SerialQueue merge_tasks_;
};

}  // namespace lstore

#endif  // LSTORE_BASELINES_DBM_DBM_TABLE_H_
