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
#include "common/status.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "core/schema.h"
#include "txn/transaction_manager.h"
#include "txn/txn.h"

namespace lstore {

// Tail version layout (row-major): [start_time][backptr][c0..cN-1].
struct RowRange {
  RowRange(const TableConfig& config, uint32_t ncols);

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

class RowTable : public EngineCore<RowRange> {
 public:
  RowTable(Schema schema, TableConfig config,
           TransactionManager* txn_manager = nullptr)
      : EngineCore("row", std::move(schema), config, txn_manager) {}

  Status Insert(Txn& txn, const std::vector<Value>& row);
  Status Update(Txn& txn, Value key, ColumnMask mask,
                const std::vector<Value>& row);
  /// Delete: appends a version whose key column is ∅ (the row-layout
  /// delete marker); older snapshots keep seeing the record.
  Status Delete(Txn& txn, Value key);
  Status Read(Txn& txn, Value key, ColumnMask mask, std::vector<Value>* out);
  Status SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) const;

 private:
  RowRange* NewRange(uint64_t) override {
    return new RowRange(config_, schema_.num_columns());
  }
  void StampWrite(RowRange& r, const WriteEntry& w, TxnId txn,
                  Value outcome) override {
    StampSlot(
        w.is_insert ? &r.base_start[w.base_slot] : r.VersionSlot(w.seq, 0),
        txn, outcome);
  }

  /// The one write step (Update, Delete): append a complete version of
  /// `key`'s row, its current values with `row`'s masked columns, or
  /// the delete marker when `row` is null.
  Status WriteVersion(Transaction* txn, Value key, ColumnMask mask,
                      const std::vector<Value>* row);

  Status ResolveRow(RowRange& r, uint32_t slot, Timestamp as_of,
                    Transaction* txn, ColumnMask mask,
                    std::vector<Value>* out) const;
};

}  // namespace lstore

#endif  // LSTORE_CORE_ROW_TABLE_H_
