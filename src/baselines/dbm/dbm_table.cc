#include "baselines/dbm/dbm_table.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/bitutil.h"

namespace lstore {

// ---------------------------------------------------------------------------
// DbmRange
// ---------------------------------------------------------------------------

DbmRange::DbmRange(const TableConfig& config, uint32_t ncols)
    : data(static_cast<size_t>(config.range_size) * ncols, kNull),
      start(config.range_size, kNull),
      deleted(config.range_size, 0),
      indirection(
          std::make_unique<std::atomic<uint64_t>[]>(config.range_size)),
      delta(kDeltaHeader + ncols, kDeltaChunk, kDeltaMaxChunks) {
  for (uint32_t i = 0; i < config.range_size; ++i) {
    indirection[i].store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

DbmTable::DbmTable(Schema schema, TableConfig config,
                   TransactionManager* txn_manager)
    : EngineCore("dbm", std::move(schema), config, txn_manager) {}

DbmTable::~DbmTable() { merge_tasks_.Stop(); }

// ---------------------------------------------------------------------------
// Gate: the blocking drain
// ---------------------------------------------------------------------------

void DbmTable::GateEnter() {
  std::unique_lock<std::mutex> lk(gate_mu_);
  gate_cv_.wait(lk, [this] { return !merge_pending_; });
  ++active_txns_;
}

void DbmTable::GateExit() {
  std::lock_guard<std::mutex> g(gate_mu_);
  --active_txns_;
  gate_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Txn DbmTable::Begin(IsolationLevel iso) {
  GateEnter();
  return EngineCore::Begin(iso);
}

Status DbmTable::CommitTxn(Transaction* txn) {
  if (txn->finished()) return Status::InvalidArgument("finished");
  Status s = EngineCore::CommitTxn(txn);
  GateExit();
  return s;
}

void DbmTable::AbortTxn(Transaction* txn) {
  if (txn->finished()) return;
  EngineCore::AbortTxn(txn);
  GateExit();
}

// ---------------------------------------------------------------------------
// Writes: inserts, updates and deletes all append to the range's delta
// ---------------------------------------------------------------------------

Status DbmTable::Insert(Txn& session, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Located at;
  LSTORE_RETURN_IF_ERROR(ReserveRow(row, &at));
  DbmRange& r = *at.range;
  uint64_t idx = r.delta.Reserve();
  if (idx == 0) {
    primary_.Erase(row[0]);
    return Status::Busy("delta space exhausted for range");
  }
  const uint32_t ncols = schema_.num_columns();
  for (ColumnId c = 0; c < ncols; ++c) {
    r.delta.Slot(idx, kDeltaHeader + c)->store(row[c],
                                               std::memory_order_relaxed);
  }
  r.delta.Slot(idx, 1)->store(0, std::memory_order_relaxed);
  r.delta.Slot(idx, 2)->store(at.slot, std::memory_order_relaxed);
  r.delta.Slot(idx, 3)->store(schema_.AllColumns(),
                              std::memory_order_relaxed);
  r.delta.Slot(idx, 0)->store(txn->id(), std::memory_order_release);
  r.indirection[at.slot].store(idx, std::memory_order_release);
  txn->writeset().push_back(WriteEntry{at.range_id, at.slot,
                                       static_cast<uint32_t>(idx),
                                       /*is_insert=*/true, row[0], this});
  return Status::OK();
}

Status DbmTable::Update(Txn& session, Value key, ColumnMask mask,
                        const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  LSTORE_RETURN_IF_ERROR(CheckUpdate(mask, &row, 1));
  return WriteDelta(session.raw(), key, mask, &row);
}

Status DbmTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  return WriteDelta(session.raw(), key, 0, nullptr);
}

Status DbmTable::WriteDelta(Transaction* txn, Value key, ColumnMask mask,
                            const std::vector<Value>* row) {
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  DbmRange& r = *at.range;
  const uint32_t slot = at.slot;

  // Latch-free write-write detection on the indirection (as L-Store).
  auto& ind = r.indirection[slot];
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if ((iv & kIndirLatchBit) != 0) {
      return Status::Aborted("write-write conflict");
    }
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  uint64_t prev = iv & ~kIndirLatchBit;
  Value latest_raw = prev != 0
                         ? r.delta.Slot(prev, 0)->load(
                               std::memory_order_acquire)
                         : (slot < r.start.size() ? r.start[slot] : kNull);
  if (txn_manager_->InFlightWriter(latest_raw, txn)) {
    ind.store(iv, std::memory_order_release);
    return Status::Aborted("write-write conflict");
  }

  // Refuse writes to deleted records.
  std::vector<Value> probe(schema_.num_columns(), kNull);
  Status s = ResolveRecord(r, slot, kMaxTimestamp, txn, 1ull, &probe);
  uint64_t idx = 0;
  if (s.ok() && (idx = r.delta.Reserve()) == 0) {
    s = Status::Busy("delta space exhausted for range");
  }
  if (!s.ok()) {
    ind.store(iv, std::memory_order_release);
    return s;
  }

  // Same-transaction stacking: mark the previous own delta superseded
  // when the new one covers all of its columns (Section 3.1).
  const Value enc = row == nullptr ? kDeleteFlag : mask;
  if (prev != 0 && latest_raw == txn->id()) {
    std::atomic<Value>* pm = r.delta.Slot(prev, 3);
    Value pmv = pm->load(std::memory_order_acquire);
    if ((SchemaColumns(enc) & SchemaColumns(pmv)) == SchemaColumns(pmv)) {
      pm->store(pmv | kSupersededFlag, std::memory_order_release);
    }
  }
  for (BitIter it(mask); it; ++it) {
    r.delta.Slot(idx, kDeltaHeader + static_cast<uint32_t>(*it))
        ->store((*row)[*it], std::memory_order_relaxed);
  }
  r.delta.Slot(idx, 1)->store(prev, std::memory_order_relaxed);
  r.delta.Slot(idx, 2)->store(slot, std::memory_order_relaxed);
  r.delta.Slot(idx, 3)->store(enc, std::memory_order_relaxed);
  r.delta.Slot(idx, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{at.range_id, slot,
                                       static_cast<uint32_t>(idx),
                                       /*is_insert=*/false, 0, this});
  ind.store(idx, std::memory_order_release);
  return Status::OK();
}

void DbmTable::WritesStamped(DbmRange& r, uint64_t id) {
  if (config_.enable_merge_thread &&
      r.delta.size() >= config_.merge_threshold &&
      !r.queued.exchange(true)) {
    merge_tasks_.Post([this, id] { MergeRange(id); });
  }
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status DbmTable::ResolveRecord(DbmRange& r, uint32_t slot, Timestamp as_of,
                               Transaction* txn, ColumnMask mask,
                               std::vector<Value>* out) {
  ColumnMask remaining = mask;
  uint64_t idx =
      r.indirection[slot].load(std::memory_order_acquire) & ~kIndirLatchBit;
  bool first = true;
  bool insert_seen = false;
  while (idx != 0 && (remaining != 0 || first)) {
    std::atomic<Value>* sref = r.delta.Slot(idx, 0);
    Value raw = sref->load(std::memory_order_acquire);
    uint64_t prev = r.delta.Slot(idx, 1)->load(std::memory_order_acquire);
    bool visible =
        txn_manager_->Visible(sref, &raw, as_of, txn) == Visibility::kVisible;
    // Flags are read after visibility: a same-transaction successor
    // marks this delta superseded before its writer commits.
    Value m = r.delta.Slot(idx, 3)->load(std::memory_order_acquire);
    if (visible && !IsSupersededRecord(m)) {
      if (first && IsDeleteRecord(m)) {
        return Status::NotFound("deleted");
      }
      if (m == schema_.AllColumns() && prev == 0) insert_seen = true;
      first = false;
      ColumnMask take = SchemaColumns(m) & remaining;
      for (BitIter it(take); it; ++it) {
        (*out)[*it] = r.delta.Slot(idx, kDeltaHeader +
                                            static_cast<uint32_t>(*it))
                          ->load(std::memory_order_acquire);
      }
      remaining &= ~take;
    }
    idx = prev;
  }
  if (remaining != 0 || first) {
    // Fall through to the main store.
    Value start = slot < r.start.size() ? r.start[slot] : kNull;
    bool main_visible = start != kNull && start < as_of &&
                        (slot >= r.deleted.size() || r.deleted[slot] == 0);
    if (first && !main_visible && !insert_seen) {
      return Status::NotFound("not visible");
    }
    if (main_visible) {
      const uint32_t ncols = schema_.num_columns();
      for (BitIter it(remaining); it; ++it) {
        (*out)[*it] = r.data[static_cast<size_t>(slot) * ncols + *it];
      }
    }
  }
  return Status::OK();
}

Status DbmTable::Read(Txn& session, Value key, ColumnMask mask,
                      std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  out->assign(schema_.num_columns(), kNull);
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  return ResolveRecord(*at.range, at.slot, ReadTime(txn), txn, mask, out);
}

Status DbmTable::SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) {
  // Scans are transactions too: they hold the gate, so merges must
  // wait for them (and they wait for merges).
  GateEnter();
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  const uint64_t nranges = ranges_.size();
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    DbmRange* r = ranges_.Get(ri);
    if (r == nullptr) continue;
    uint32_t occ = r->occupied.load(std::memory_order_acquire);
    for (uint32_t slot = 0; slot < occ; ++slot) {
      uint64_t idx = r->indirection[slot].load(std::memory_order_acquire) &
                     ~kIndirLatchBit;
      if (idx == 0) {
        Value start = r->start[slot];
        if (start != kNull && start < as_of && r->deleted[slot] == 0) {
          acc += r->data[static_cast<size_t>(slot) * ncols + col];
        }
        continue;
      }
      tmp[col] = kNull;
      Status s = ResolveRecord(*r, slot, as_of, nullptr, 1ull << col, &tmp);
      if (s.ok() && tmp[col] != kNull) acc += tmp[col];
    }
  }
  *sum = acc;
  GateExit();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Blocking merge
// ---------------------------------------------------------------------------

bool DbmTable::MergeRange(uint64_t range_id) {
  DbmRange* r = ranges_.Get(range_id);
  if (r == nullptr) return false;
  uint64_t delta_len = r->delta.size();
  if (delta_len == 0) return false;

  // Drain: close the gate and wait for active transactions to finish.
  auto t0 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lk(gate_mu_);
    gate_cv_.wait(lk, [this] { return !merge_pending_; });
    merge_pending_ = true;
    gate_cv_.wait(lk, [this] { return active_txns_ == 0; });
  }
  auto t1 = std::chrono::steady_clock::now();
  drain_wait_us_.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count(),
      std::memory_order_relaxed);

  // All deltas are decided now (no active transactions). Apply the
  // newest committed version per (slot, column).
  const uint32_t ncols = schema_.num_columns();
  delta_len = r->delta.size();
  std::unordered_map<uint32_t, ColumnMask> seen;
  for (uint64_t idx = delta_len; idx >= 1; --idx) {
    std::atomic<Value>* sref = r->delta.Slot(idx, 0);
    Value raw = sref->load(std::memory_order_acquire);
    if (txn_manager_->Resolve(sref, &raw).outcome != Outcome::kCommitted) {
      continue;
    }
    uint32_t slot = static_cast<uint32_t>(
        r->delta.Slot(idx, 2)->load(std::memory_order_acquire));
    Value m_flags = r->delta.Slot(idx, 3)->load(std::memory_order_acquire);
    if (IsSupersededRecord(m_flags)) continue;
    if (IsDeleteRecord(m_flags) && seen[slot] == 0) {
      r->deleted[slot] = 1;
      seen[slot] = schema_.AllColumns();
      if (r->start[slot] == kNull || raw > r->start[slot]) {
        r->start[slot] = raw;
      }
      continue;
    }
    ColumnMask m = SchemaColumns(m_flags);
    ColumnMask take = m & ~seen[slot];
    for (BitIter it(take); it; ++it) {
      r->data[static_cast<size_t>(slot) * ncols + *it] =
          r->delta.Slot(idx, kDeltaHeader + static_cast<uint32_t>(*it))
              ->load(std::memory_order_acquire);
    }
    seen[slot] |= m;
    if (r->start[slot] == kNull || raw > r->start[slot]) {
      r->start[slot] = raw;
    }
  }
  // Reset indirection and clear the delta.
  for (uint32_t slot = 0; slot < config_.range_size; ++slot) {
    r->indirection[slot].store(0, std::memory_order_relaxed);
  }
  r->delta.Clear();
  r->queued.store(false, std::memory_order_release);
  merges_.fetch_add(1, std::memory_order_relaxed);

  // Reopen the gate.
  {
    std::lock_guard<std::mutex> g(gate_mu_);
    merge_pending_ = false;
  }
  gate_cv_.notify_all();
  return true;
}

}  // namespace lstore
