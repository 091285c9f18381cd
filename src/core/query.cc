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
  const uint32_t ncols = table_->schema_.num_columns();
  std::vector<Value> tmp(ncols, kNull);
  for (Rid rid : candidates) {
    Table::Range* r = table_->GetRange(table_->RangeOf(rid));
    if (r == nullptr) continue;
    Table::ReadSpec spec{as_of, nullptr, /*speculative=*/false};
    std::fill(tmp.begin(), tmp.end(), kNull);
    // Re-evaluate every predicate on the visible version — index
    // candidates are only hints (Section 3.1).
    Status s = table_->ResolveRecord(*r, table_->SlotOf(rid), spec,
                                     needed | 1ull, &tmp, nullptr);
    if (!s.ok()) continue;
    bool pass = true;
    for (const Filter& f : filters_) {
      if (!f.Matches(tmp[f.col])) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    if (agg_col != kNoAggregation) {
      if (sum != nullptr && tmp[agg_col] != kNull) Accumulate(sum, tmp[agg_col]);
      if (rows != nullptr) ++*rows;
    } else if (visit != nullptr) {
      // Same delivery contract as the scan path: only projected
      // columns are materialized, the rest read ∅.
      Value key = tmp[0];
      ColumnMask project = project_ & table_->schema_.AllColumns();
      for (BitIter it((needed | 1ull) & ~project); it; ++it) {
        tmp[*it] = kNull;
      }
      (*visit)(key, tmp);
    }
  }
  return Status::OK();
}

void Query::ScanPartition(uint64_t range_id, uint32_t slot_begin,
                          uint32_t slot_end, ColumnMask needed,
                          Timestamp as_of, ColumnId agg_col, const RowFn* visit,
                          uint64_t* sum, uint64_t* rows) const {
  Table::Range* r = table_->GetRange(range_id);
  if (r == nullptr) return;
  uint32_t occ = r->occupied.load(std::memory_order_acquire);
  if (slot_end > occ) slot_end = occ;
  if (slot_begin >= slot_end) return;

  const uint32_t ncols = table_->schema_.num_columns();
  const ColumnMask project = project_ & table_->schema_.AllColumns();
  // Columns resolved for filters/keys but NOT projected must read ∅
  // in delivered rows; `tmp` is reused across slots, so scrub them at
  // every delivery or a fast-path row would leak the previous
  // slow-path row's values.
  const ColumnMask scrub =
      visit != nullptr ? (needed | 1ull) & ~project : 0;

  // Merged fast path setup (Section 4.2): every needed data column
  // plus the lineage metadata must come from ONE merge generation —
  // mixed generations are the inconsistent read of Lemma 3, repaired
  // by the chain walk (Theorem 2). Every segment the partition scans
  // is PINNED for the partition's duration: the cursors below read the
  // compressed payloads directly, and the pins keep the eviction sweep
  // away while this range is being consumed (demand-loading cold
  // pages exactly once per partition, not once per slot).
  BaseSegment* seg_lut =
      r->base[ncols + kBaseLastUpdated].load(std::memory_order_acquire);
  BaseSegment* seg_enc =
      r->base[ncols + kBaseSchemaEnc].load(std::memory_order_acquire);
  BaseSegment* seg_start =
      r->base[ncols + kBaseStartTime].load(std::memory_order_acquire);
  bool fast = seg_lut != nullptr && seg_enc != nullptr &&
              seg_start != nullptr && seg_lut->tps == seg_enc->tps;
  uint32_t tps = fast ? seg_enc->tps : 0;
  uint32_t fast_slots =
      fast ? std::min({seg_lut->num_slots, seg_enc->num_slots,
                       seg_start->num_slots})
           : 0;
  std::vector<BaseSegment*> data_seg(ncols, nullptr);
  std::vector<PageHandle> data_page(ncols);
  std::vector<CompressedColumn::Cursor> data_cur(ncols);
  for (BitIter it(needed); fast && it; ++it) {
    uint32_t col = static_cast<uint32_t>(*it);
    BaseSegment* seg = table_->Segment(*r, col);
    if (seg == nullptr || seg->tps != tps) {
      fast = false;
      break;
    }
    data_seg[col] = seg;
    data_page[col] = seg->Pin();
    data_cur[col] = data_page[col].cursor();
    fast_slots = std::min(fast_slots, seg->num_slots);
  }
  PageHandle lut_page, enc_page, start_page;
  CompressedColumn::Cursor lut_cur, enc_cur, start_cur;
  if (fast) {
    lut_page = seg_lut->Pin();
    enc_page = seg_enc->Pin();
    start_page = seg_start->Pin();
    lut_cur = lut_page.cursor();
    enc_cur = enc_page.cursor();
    start_cur = start_page.cursor();
  }

  // One load per partition: a range that was never updated carries no
  // metadata array, and every chain head in it is 0.
  const Table::SlotMeta* meta = r->meta.load(std::memory_order_acquire);
  std::vector<Value> tmp(ncols, kNull);
  for (uint32_t slot = slot_begin; slot < slot_end; ++slot) {
    if (fast && slot < fast_slots) {
      if (Table::SlotMeta::HeadSeq(meta, slot) <= tps) {
        Value lut = lut_cur.At(slot);
        Value start = start_cur.At(slot);
        bool horizon_ok =
            as_of == kMaxTimestamp || (lut != kNull && lut < as_of);
        if (horizon_ok && start != kNull && start < as_of) {
          Value enc = enc_cur.At(slot);
          if (IsDeleteRecord(enc)) continue;
          // Predicate pushdown: evaluate directly on the compressed
          // segments; rejected slots never materialize a row.
          bool pass = true;
          for (const Filter& f : filters_) {
            if (!f.Matches(data_cur[f.col].At(slot))) {
              pass = false;
              break;
            }
          }
          if (!pass) continue;
          if (agg_col != kNoAggregation) {
            Value v = data_cur[agg_col].At(slot);
            if (v != kNull) Accumulate(sum, v);
            ++*rows;
          } else if (visit != nullptr) {
            for (BitIter it(scrub); it; ++it) tmp[*it] = kNull;
            for (BitIter it(project); it; ++it) {
              tmp[*it] = data_cur[*it].At(slot);
            }
            (*visit)(data_cur[0].At(slot), tmp);
          }
          continue;
        }
        if (start == kNull) continue;  // aborted insert slot
      }
    }
    // Slow path: resolve through the lineage chain (also covers the
    // historic store and in-flight writers).
    Table::ReadSpec spec{as_of, nullptr, /*speculative=*/false};
    for (BitIter it(needed); it; ++it) tmp[*it] = kNull;
    Status s = table_->ResolveRecord(*r, slot, spec, needed, &tmp, nullptr);
    if (!s.ok()) continue;
    bool pass = true;
    for (const Filter& f : filters_) {
      if (!f.Matches(tmp[f.col])) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    if (agg_col != kNoAggregation) {
      if (tmp[agg_col] != kNull) Accumulate(sum, tmp[agg_col]);
      ++*rows;
    } else if (visit != nullptr) {
      Value key = tmp[0];
      for (BitIter it(scrub); it; ++it) tmp[*it] = kNull;
      (*visit)(key, tmp);
    }
  }
}

}  // namespace lstore
