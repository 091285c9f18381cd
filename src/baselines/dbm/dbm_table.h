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
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
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

class DbmTable : public TxnContext {
 public:
  DbmTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr);
  ~DbmTable();

  /// RAII session (same surface as Table): commit via txn.Commit(),
  /// auto-abort on destruction.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  /// Non-ticking read snapshot for scans.
  Timestamp Now() const { return txn_manager_->SnapshotNow(); }

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
  /// tests; normally driven by the background thread.
  bool MergeRange(uint64_t range_id);

  const Schema& schema() const { return schema_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  uint64_t num_rows() const { return next_row_.load(std::memory_order_acquire); }
  uint64_t merges_performed() const {
    return merges_.load(std::memory_order_acquire);
  }
  uint64_t drain_waits_us() const {
    return drain_wait_us_.load(std::memory_order_acquire);
  }

 private:
  // Session plumbing (TxnContext).
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  // Delta entry stride layout:
  // [0]=start_raw, [1]=prev_idx, [2]=slot, [3]=mask, [4..4+ncols).
  static constexpr uint32_t kDeltaHeader = 4;
  static constexpr uint32_t kDeltaChunk = 1024;
  static constexpr uint32_t kDeltaMaxChunks = 1u << 12;  // 2^22 per range

  struct MainRange {
    MainRange(uint32_t range_size, uint32_t ncols, uint32_t stride);
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

  MainRange* GetRange(uint64_t id) const;
  MainRange* EnsureRange(uint64_t id);

  // Transaction gate (drain machinery).
  void GateEnter();
  void GateExit();

  bool VisibleRaw(std::atomic<Value>* sref, Value& raw, Timestamp as_of,
                  Transaction* txn) const;
  Status ResolveRecord(MainRange& r, uint32_t slot, Timestamp as_of,
                       Transaction* txn, ColumnMask mask,
                       std::vector<Value>* out);

  void MergeLoop();

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

  // Gate state.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  uint64_t active_txns_ = 0;
  bool merge_pending_ = false;

  // Background merge thread.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<uint64_t> merge_queue_;
  bool running_ = false;
  std::thread merge_thread_;

  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> drain_wait_us_{0};
};

}  // namespace lstore

#endif  // LSTORE_BASELINES_DBM_DBM_TABLE_H_
