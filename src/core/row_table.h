// L-Store (Row): row-layout variant of the lineage architecture used
// by the layout comparison of Section 6.2 (Tables 8 and 9).
//
// Footnote 18: "our proposed lineage-based storage architecture is not
// limited to any particular data layout". This variant keeps the same
// machinery — base records + append-only tail versions + in-place
// Indirection with a latch bit + MVCC visibility — but stores each
// record contiguously. Every tail version is a *complete* row (the
// natural row-store behaviour), so reads are always at most 1 hop;
// scans pay the strided access that Table 8 quantifies.

#ifndef LSTORE_CORE_ROW_TABLE_H_
#define LSTORE_CORE_ROW_TABLE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/chunked_store.h"
#include "common/config.h"
#include "common/epoch.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "core/schema.h"
#include "index/primary_index.h"
#include "txn/transaction.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

class RowTable : public TxnContext {
 public:
  RowTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr);
  ~RowTable();

  /// RAII session (same surface as Table): commit via txn.Commit(),
  /// auto-abort on destruction.
  Txn Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  /// Non-ticking read snapshot for scans.
  Timestamp Now() const { return txn_manager_->SnapshotNow(); }

  Status Insert(Txn& txn, const std::vector<Value>& row);
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);
  /// Delete: appends a version whose key column is ∅ (the row-layout
  /// delete marker); older snapshots keep seeing the record.
  Status Delete(Txn& txn, Value key);
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);
  Status SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) const;

  const Schema& schema() const { return schema_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  uint64_t num_rows() const { return next_row_.load(std::memory_order_acquire); }

 private:
  // Session plumbing (TxnContext).
  Status CommitTxn(Transaction* txn) override;
  void AbortTxn(Transaction* txn) override;

  // Tail version layout (row-major): [start_time][backptr][c0..cN-1].
  struct RowRange {
    RowRange(uint32_t range_size, uint32_t ncols);

    std::atomic<uint32_t> occupied{0};
    /// Base rows: range_size * ncols atomic values.
    std::unique_ptr<std::atomic<Value>[]> base;
    std::unique_ptr<std::atomic<Value>[]> base_start;
    std::unique_ptr<std::atomic<uint64_t>[]> indirection;
    /// Tail versions (seq = store index), ncols + 2 fields each. The
    /// store allocates nothing until the range's first update.
    static constexpr uint32_t kChunkRows = 256;
    static constexpr uint32_t kMaxChunks = 1u << 14;
    ChunkedStore versions;

    std::atomic<Value>* VersionSlot(uint32_t seq, uint32_t field) const {
      return versions.Slot(seq, field);
    }
  };

  RowRange* GetRange(uint64_t id) const;
  RowRange* EnsureRange(uint64_t id);

  Status ResolveRow(RowRange& r, uint32_t slot, Timestamp as_of,
                    Transaction* txn, ColumnMask mask,
                    std::vector<Value>* out) const;

  Schema schema_;
  TableConfig config_;
  std::unique_ptr<TransactionManager> owned_txn_manager_;
  TransactionManager* txn_manager_;
  mutable EpochManager epochs_;
  PrimaryIndex primary_;

  static constexpr uint64_t kMaxRanges = 1 << 16;
  std::atomic<uint64_t> next_row_{0};
  mutable SpinLatch ranges_latch_;
  std::unique_ptr<std::atomic<RowRange*>[]> ranges_;
  std::atomic<uint64_t> num_ranges_{0};
};

}  // namespace lstore

#endif  // LSTORE_CORE_ROW_TABLE_H_
