// Composable snapshot queries over one table (the real-time OLAP side
// of the paper, Section 6.2).
//
// A Query is built fluently and executed by a terminal:
//
//   uint64_t total = 0;
//   table.NewQuery()
//        .Range(0, table.num_rows())        // optional row interval
//        .Where(kStatus, 1)                 // equality / predicate filters
//        .AsOf(snapshot)                    // default: current snapshot
//        .Sum(kBalance, &total);            // terminal
//
// Terminals: Sum, Count, Visit (per-row callback), Keys (matching
// primary keys, sorted + deduplicated).
//
// Execution partitions the row interval along update-range boundaries
// and fans the partitions out on the shared scan pool (ThreadPool):
// update ranges are independent physical units (own base segments,
// own tail pages, own lineage), so partitions never share mutable
// state and a snapshot scan parallelizes embarrassingly. Within a
// partition the scan follows the merged fast path of Section 4.2 —
// predicates and projection are evaluated directly on the compressed
// base segments through monotone cursors (CompressedColumn::Cursor),
// falling back to the lineage chain walk only for slots whose merge
// horizon does not cover the snapshot.
//
// An equality filter on a column with a secondary index switches to a
// candidate-driven plan: index postings are re-validated against the
// snapshot, as Section 3.1 prescribes.

#ifndef LSTORE_CORE_QUERY_H_
#define LSTORE_CORE_QUERY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/table.h"

namespace lstore {

class Query {
 public:
  /// Row callback for Visit: `row` holds every projected column
  /// (others ∅). With more than one worker the callback runs
  /// concurrently from pool threads and must be thread-safe; row
  /// order is unspecified.
  using RowFn = std::function<void(Value key, const std::vector<Value>& row)>;
  using Predicate = std::function<bool(Value)>;

  /// Columns delivered to Visit callbacks (default: every column).
  Query& Project(ColumnMask mask) {
    project_ = mask;
    return *this;
  }

  /// Restrict to rows [first_row, first_row + row_count) in base-RID
  /// order (the "10% of the data" queries of Section 6.1).
  Query& Range(uint64_t first_row, uint64_t row_count) {
    first_row_ = first_row;
    row_count_ = row_count;
    return *this;
  }

  /// Keep rows whose visible `col` equals `v`. Uses the column's
  /// secondary index when one exists and the query spans the table.
  Query& Where(ColumnId col, Value v) {
    filters_.push_back(Filter{col, true, v, nullptr});
    return *this;
  }

  /// Keep rows whose visible `col` satisfies `pred`.
  Query& Where(ColumnId col, Predicate pred) {
    filters_.push_back(Filter{col, false, 0, std::move(pred)});
    return *this;
  }

  /// Evaluate against the snapshot at `ts` (time travel). Default:
  /// a non-ticking current snapshot (Table::Now()).
  Query& AsOf(Timestamp ts) {
    as_of_ = ts;
    return *this;
  }

  /// Maximum parallel executors: 1 = run on the calling thread only,
  /// 0 (default) = size automatically from the shared pool and the
  /// scan width.
  Query& Workers(uint32_t n) {
    workers_ = n;
    return *this;
  }

  // --- terminals -----------------------------------------------------------

  /// SUM of the visible values of `col` over every matching row
  /// (∅ contributes 0); `visible_rows` counts the matching rows.
  Status Sum(ColumnId col, uint64_t* sum,
             uint64_t* visible_rows = nullptr) const;

  /// Minimum / maximum visible value of `col` over every matching row
  /// (∅ values are skipped; *out = ∅ when no row contributes).
  /// Evaluated on the merged fast path through the same compressed-
  /// segment cursors as Sum.
  Status Min(ColumnId col, Value* out, uint64_t* visible_rows = nullptr) const;
  Status Max(ColumnId col, Value* out, uint64_t* visible_rows = nullptr) const;

  /// Number of matching rows.
  Status Count(uint64_t* count) const;

  /// Deliver every matching row.
  Status Visit(const RowFn& fn) const;

  /// Primary keys of matching rows, sorted and deduplicated.
  Status Keys(std::vector<Value>* keys) const;

 private:
  friend class Table;

  struct Filter {
    ColumnId col;
    bool is_equality;
    Value equals;
    Predicate pred;

    bool Matches(Value v) const { return is_equality ? v == equals : pred(v); }
  };

  explicit Query(const Table* table) : table_(table) {}

  /// Aggregate flavor of the shared execution core: Sum folds with +,
  /// Min/Max fold with the comparator (∅ is the fold identity).
  enum class AggKind { kSum, kMin, kMax };

  /// Fold one non-∅ value into the accumulator.
  void Accumulate(uint64_t* acc, Value v) const {
    switch (agg_kind_) {
      case AggKind::kSum: *acc += v; break;
      case AggKind::kMin:
        if (*acc == kNull || v < *acc) *acc = v;
        break;
      case AggKind::kMax:
        if (*acc == kNull || v > *acc) *acc = v;
        break;
    }
  }
  uint64_t AggIdentity() const {
    return agg_kind_ == AggKind::kSum ? 0 : kNull;
  }
  /// Merge a partition's partial accumulator into the global one.
  void MergeAccumulator(uint64_t* acc, uint64_t partial) const {
    if (agg_kind_ == AggKind::kSum) {
      *acc += partial;
    } else if (partial != kNull) {
      Accumulate(acc, partial);
    }
  }

  /// Shared execution core. `agg_col` != kNoAggregation accumulates
  /// into sum/rows without materializing rows; otherwise every
  /// matching row is delivered to `visit`.
  static constexpr ColumnId kNoAggregation = ~0u;
  Status Execute(ColumnId agg_col, const RowFn* visit, uint64_t* sum,
                 uint64_t* rows) const;

  /// Candidate-driven plan via the secondary index on `index_col`.
  Status ExecuteWithIndex(ColumnId index_col, ColumnMask needed,
                          Timestamp as_of, ColumnId agg_col, const RowFn* visit,
                          uint64_t* sum, uint64_t* rows) const;

  /// The one filter-and-deliver step of every plan. `get(col)` reads a
  /// resolved column of one record. Every predicate is checked, then
  /// `agg_col` folds into sum/rows, or `visit` receives the row in
  /// `row` (reused across records) with only the projected columns
  /// materialized: the others of `needed` read ∅.
  template <typename Get>
  void Deliver(const Get& get, ColumnMask needed, ColumnId agg_col,
               const RowFn* visit, uint64_t* sum, uint64_t* rows,
               std::vector<Value>* row) const;

  /// Scan slots [slot_begin, slot_end) of one update range.
  void ScanPartition(uint64_t range_id, uint32_t slot_begin, uint32_t slot_end,
                     ColumnMask needed, Timestamp as_of, ColumnId agg_col,
                     const RowFn* visit, uint64_t* sum, uint64_t* rows) const;

  const Table* table_;
  ColumnMask project_ = ~0ull;
  uint64_t first_row_ = 0;
  uint64_t row_count_ = ~0ull;
  Timestamp as_of_ = 0;  ///< 0 = Table::Now() at execution
  uint32_t workers_ = 0;
  AggKind agg_kind_ = AggKind::kSum;
  std::vector<Filter> filters_;
};

inline Query Table::NewQuery() const { return Query(this); }

}  // namespace lstore

#endif  // LSTORE_CORE_QUERY_H_
