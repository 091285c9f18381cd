#include "core/query.h"

#include <algorithm>
#include <mutex>

#include "common/bitutil.h"
#include "common/thread_pool.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// Below this many scanned rows a query stays on the calling thread
/// unless the caller asked for workers explicitly: fan-out overhead
/// would dominate.
constexpr uint64_t kMinRowsForParallel = 16384;

}  // namespace

// ---------------------------------------------------------------------------
// Terminals
// ---------------------------------------------------------------------------

Status Query::Sum(ColumnId col, uint64_t* sum, uint64_t* visible_rows) const {
  uint64_t local_sum = 0, local_rows = 0;
  LSTORE_RETURN_IF_ERROR(Execute(col, nullptr, &local_sum, &local_rows));
  *sum = local_sum;
  if (visible_rows != nullptr) *visible_rows = local_rows;
  return Status::OK();
}

Status Query::Min(ColumnId col, Value* out, uint64_t* visible_rows) const {
  Query q(*this);
  q.agg_kind_ = AggKind::kMin;
  uint64_t acc = kNull, rows = 0;
  LSTORE_RETURN_IF_ERROR(q.Execute(col, nullptr, &acc, &rows));
  *out = acc;
  if (visible_rows != nullptr) *visible_rows = rows;
  return Status::OK();
}

Status Query::Max(ColumnId col, Value* out, uint64_t* visible_rows) const {
  Query q(*this);
  q.agg_kind_ = AggKind::kMax;
  uint64_t acc = kNull, rows = 0;
  LSTORE_RETURN_IF_ERROR(q.Execute(col, nullptr, &acc, &rows));
  *out = acc;
  if (visible_rows != nullptr) *visible_rows = rows;
  return Status::OK();
}

Status Query::Count(uint64_t* count) const {
  // Aggregate over the key column (always materialized): the sum is
  // discarded, the row count is the answer.
  Query q(*this);
  q.project_ = 0;
  uint64_t local_sum = 0, local_rows = 0;
  LSTORE_RETURN_IF_ERROR(q.Execute(0, nullptr, &local_sum, &local_rows));
  *count = local_rows;
  return Status::OK();
}

Status Query::Visit(const RowFn& fn) const {
  return Execute(kNoAggregation, &fn, nullptr, nullptr);
}

Status Query::Keys(std::vector<Value>* keys) const {
  keys->clear();
  std::mutex mu;
  Query q(*this);
  q.project_ = 0;  // only the key column is materialized
  RowFn fn = [&](Value key, const std::vector<Value>&) {
    std::lock_guard<std::mutex> g(mu);
    keys->push_back(key);
  };
  LSTORE_RETURN_IF_ERROR(q.Execute(kNoAggregation, &fn, nullptr, nullptr));
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Status Query::Execute(ColumnId agg_col, const RowFn* visit, uint64_t* sum,
                      uint64_t* rows) const {
  const Schema& schema = table_->schema_;
  if (agg_col != kNoAggregation && agg_col >= schema.num_columns()) {
    return Status::InvalidArgument("bad column");
  }
  for (const Filter& f : filters_) {
    if (f.col >= schema.num_columns()) {
      return Status::InvalidArgument("bad filter column");
    }
  }

  ColumnMask needed = 0;
  if (visit != nullptr) needed |= (project_ & schema.AllColumns()) | 1ull;
  if (agg_col != kNoAggregation) needed |= 1ull << agg_col;
  for (const Filter& f : filters_) needed |= 1ull << f.col;

  Timestamp as_of = as_of_ != 0 ? as_of_ : table_->Now();
  if (sum != nullptr) *sum = AggIdentity();
  if (rows != nullptr) *rows = 0;

  uint64_t total = table_->num_rows();
  uint64_t begin = std::min(first_row_, total);
  uint64_t end = row_count_ >= total - begin ? total : begin + row_count_;
  if (begin >= end) return Status::OK();

  // Candidate-driven plan: an equality filter on an indexed column
  // beats a full scan whenever the query spans the whole table.
  if (begin == 0 && end == total) {
    for (const Filter& f : filters_) {
      if (!f.is_equality) continue;
      bool indexed = false;
      {
        SpinGuard sg(table_->secondary_latch_);
        for (const auto& s : table_->secondaries_) {
          if (s.col == f.col) {
            indexed = true;
            break;
          }
        }
      }
      if (indexed) {
        return ExecuteWithIndex(f.col, needed, as_of, agg_col, visit, sum,
                                rows);
      }
    }
  }

  const uint32_t rsz = table_->config_.range_size;
  const uint64_t r_begin = begin / rsz;
  const uint64_t r_end = (end - 1) / rsz + 1;
  const uint64_t nparts = r_end - r_begin;

  auto scan_range = [&](uint64_t range_id, uint64_t* psum, uint64_t* prows) {
    uint64_t range_first = range_id * rsz;
    uint32_t sb = range_first < begin
                      ? static_cast<uint32_t>(begin - range_first)
                      : 0;
    uint32_t se = static_cast<uint32_t>(
        std::min<uint64_t>(rsz, end - range_first));
    ScanPartition(range_id, sb, se, needed, as_of, agg_col, visit, psum,
                  prows);
  };

  // Resolve the worker count WITHOUT touching the shared pool: a
  // serial query (explicit Workers(1), small scan, single partition)
  // must not be the reason the process spawns its pool threads.
  uint32_t workers = workers_;
  if (workers == 0 && end - begin < kMinRowsForParallel) workers = 1;

  if (workers == 1 || nparts == 1) {
    Stage stage(table_->obs_.query_partition_ns, nullptr);
    EpochGuard guard(table_->epochs_);
    uint64_t lsum = AggIdentity(), lrows = 0;
    for (uint64_t rid = r_begin; rid < r_end; ++rid) {
      scan_range(rid, &lsum, &lrows);
    }
    if (sum != nullptr) MergeAccumulator(sum, lsum);
    if (rows != nullptr) *rows += lrows;
    return Status::OK();
  }

  // Fan the update ranges out on the shared pool. Each task owns a
  // contiguous chunk of ranges, accumulates locally, and folds its
  // partial aggregate in under a mutex — identical results to the
  // sequential plan because every partition scans the same snapshot.
  ThreadPool& pool = ThreadPool::Shared();
  if (workers == 0) {
    workers = static_cast<uint32_t>(
        std::min<uint64_t>(pool.num_threads() + 1, nparts));
  }
  uint64_t chunk = std::max<uint64_t>(1, nparts / (uint64_t{workers} * 4));
  uint64_t ntasks = (nparts + chunk - 1) / chunk;
  std::mutex fold_mu;
  pool.ParallelFor(ntasks, workers, [&](uint64_t task) {
    // Per-partition-task latency: the distribution's spread under a
    // concurrent merge is the paper's contention claim, per partition.
    Stage stage(table_->obs_.query_partition_ns, nullptr);
    EpochGuard guard(table_->epochs_);
    uint64_t lsum = AggIdentity(), lrows = 0;
    uint64_t t_begin = r_begin + task * chunk;
    uint64_t t_end = std::min(r_end, t_begin + chunk);
    for (uint64_t rid = t_begin; rid < t_end; ++rid) {
      scan_range(rid, &lsum, &lrows);
    }
    if (sum != nullptr || rows != nullptr) {
      std::lock_guard<std::mutex> g(fold_mu);
      if (sum != nullptr) MergeAccumulator(sum, lsum);
      if (rows != nullptr) *rows += lrows;
    }
  });
  return Status::OK();
}

Status Query::ExecuteWithIndex(ColumnId index_col, ColumnMask needed,
                               Timestamp as_of, ColumnId agg_col,
                               const RowFn* visit, uint64_t* sum,
                               uint64_t* rows) const {
  Value equals = 0;
  for (const Filter& f : filters_) {
    if (f.is_equality && f.col == index_col) {
      equals = f.equals;
      break;
    }
  }
  std::vector<Rid> candidates;
  {
    SpinGuard sg(table_->secondary_latch_);
    for (const auto& s : table_->secondaries_) {
      if (s.col == index_col) {
        candidates = s.index->Lookup(equals);
        break;
      }
    }
  }
  // Postings accumulate one entry per updated version; visit each
  // base record once.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  EpochGuard guard(table_->epochs_);
  const ReadSpec spec{as_of, nullptr, /*speculative=*/false};
  std::vector<Value> tmp(table_->schema_.num_columns(), kNull);
  auto get = [&tmp](ColumnId c) { return tmp[c]; };
  for (Rid rid : candidates) {
    lstore::Range* r = table_->GetRange(table_->RangeOf(rid));
    if (r == nullptr) continue;
    std::fill(tmp.begin(), tmp.end(), kNull);
    // Re-evaluate every predicate on the visible version — index
    // candidates are only hints (Section 3.1).
    if (r->Resolve(table_->SlotOf(rid), spec, needed | 1ull, &tmp, nullptr)
            .ok()) {
      Deliver(get, needed, agg_col, visit, sum, rows, &tmp);
    }
  }
  return Status::OK();
}

template <typename Get>
void Query::Deliver(const Get& get, ColumnMask needed, ColumnId agg_col,
                    const RowFn* visit, uint64_t* sum, uint64_t* rows,
                    std::vector<Value>* row) const {
  for (const Filter& f : filters_) {
    if (!f.Matches(get(f.col))) return;
  }
  if (agg_col != kNoAggregation) {
    Value v = get(agg_col);
    if (v != kNull) Accumulate(sum, v);
    ++*rows;
  } else if (visit != nullptr) {
    // Columns resolved for filters or the key but not projected must
    // read ∅, also when `row` still holds another record's values.
    const Value key = get(0);
    const ColumnMask project = project_ & table_->schema_.AllColumns();
    for (BitIter it((needed | 1ull) & ~project); it; ++it) (*row)[*it] = kNull;
    for (BitIter it(project); it; ++it) (*row)[*it] = get(*it);
    (*visit)(key, *row);
  }
}

void Query::ScanPartition(uint64_t range_id, uint32_t slot_begin,
                          uint32_t slot_end, ColumnMask needed,
                          Timestamp as_of, ColumnId agg_col, const RowFn* visit,
                          uint64_t* sum, uint64_t* rows) const {
  lstore::Range* r = table_->GetRange(range_id);
  if (r == nullptr) return;
  slot_end = std::min(slot_end, r->occupied());
  if (slot_begin >= slot_end) return;

  // Merged fast path (Section 4.2) over one pinned merge generation;
  // the slow path resolves through the lineage chain (also covering the
  // historic store and in-flight writers).
  lstore::Range::MergedView view(*r, needed);
  const ReadSpec spec{as_of, nullptr, /*speculative=*/false};
  std::vector<Value> tmp(table_->schema_.num_columns(), kNull);
  auto resolved = [&tmp](ColumnId c) { return tmp[c]; };
  for (uint32_t slot = slot_begin; slot < slot_end; ++slot) {
    if (view.Covers(slot)) {
      Value lut = view.LastUpdated(slot);
      Value start = view.Start(slot);
      bool horizon_ok =
          as_of == kMaxTimestamp || (lut != kNull && lut < as_of);
      if (horizon_ok && start != kNull && start < as_of) {
        // Predicate pushdown: evaluated directly on the compressed
        // segments; rejected slots never materialize a row.
        if (!IsDeleteRecord(view.Encoding(slot))) {
          Deliver([&](ColumnId c) { return view.Data(c, slot); }, needed,
                  agg_col, visit, sum, rows, &tmp);
        }
        continue;
      }
      if (start == kNull) continue;  // aborted insert slot
    }
    for (BitIter it(needed); it; ++it) tmp[*it] = kNull;
    if (r->Resolve(slot, spec, needed, &tmp, nullptr).ok()) {
      Deliver(resolved, needed, agg_col, visit, sum, rows, &tmp);
    }
  }
}

}  // namespace lstore
