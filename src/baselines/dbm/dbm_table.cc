#include "baselines/dbm/dbm_table.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/bitutil.h"

namespace lstore {

// ---------------------------------------------------------------------------
// MainRange
// ---------------------------------------------------------------------------

DbmTable::MainRange::MainRange(uint32_t range_size, uint32_t ncols,
                               uint32_t stride)
    : data(static_cast<size_t>(range_size) * ncols, kNull),
      start(range_size, kNull),
      deleted(range_size, 0),
      indirection(std::make_unique<std::atomic<uint64_t>[]>(range_size)),
      delta(stride, kDeltaChunk, kDeltaMaxChunks) {
  for (uint32_t i = 0; i < range_size; ++i) {
    indirection[i].store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

DbmTable::DbmTable(Schema schema, TableConfig config,
                   TransactionManager* txn_manager)
    : schema_(std::move(schema)),
      config_(config),
      ranges_(std::make_unique<std::atomic<MainRange*>[]>(kMaxRanges)) {
  for (uint64_t i = 0; i < kMaxRanges; ++i) {
    ranges_[i].store(nullptr, std::memory_order_relaxed);
  }
  if (txn_manager != nullptr) {
    txn_manager_ = txn_manager;
  } else {
    owned_txn_manager_ = std::make_unique<TransactionManager>();
    txn_manager_ = owned_txn_manager_.get();
  }
  if (config_.enable_merge_thread) {
    running_ = true;
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
}

DbmTable::~DbmTable() {
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    running_ = false;
  }
  queue_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
  for (uint64_t i = 0; i < kMaxRanges; ++i) {
    delete ranges_[i].load(std::memory_order_relaxed);
  }
}

DbmTable::MainRange* DbmTable::GetRange(uint64_t id) const {
  if (id >= kMaxRanges) return nullptr;
  return ranges_[id].load(std::memory_order_acquire);
}

DbmTable::MainRange* DbmTable::EnsureRange(uint64_t id) {
  MainRange* r = GetRange(id);
  if (r != nullptr) return r;
  SpinGuard g(ranges_latch_);
  r = ranges_[id].load(std::memory_order_acquire);
  if (r == nullptr) {
    r = new MainRange(config_.range_size, schema_.num_columns(),
                      kDeltaHeader + schema_.num_columns());
    ranges_[id].store(r, std::memory_order_release);
    uint64_t n = num_ranges_.load(std::memory_order_relaxed);
    while (n < id + 1 && !num_ranges_.compare_exchange_weak(
                             n, id + 1, std::memory_order_acq_rel)) {
    }
  }
  return r;
}

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
  return Txn(this, txn_manager_->Begin(iso));
}

Status DbmTable::CommitTxn(Transaction* txn) {
  if (txn->finished()) return Status::InvalidArgument("finished");
  Timestamp commit_time = txn_manager_->EnterPreCommit(txn);
  txn_manager_->MarkCommitted(txn);
  for (const WriteEntry& w : txn->writeset()) {
    MainRange* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    std::atomic<Value>* sref = r->delta.Slot(w.seq, 0);
    Value expected = txn->id();
    sref->compare_exchange_strong(expected, commit_time,
                                  std::memory_order_acq_rel);
  }
  txn_manager_->Retire(txn->id());
  txn->set_finished();
  GateExit();
  return Status::OK();
}

void DbmTable::AbortTxn(Transaction* txn) {
  if (txn->finished()) return;
  txn_manager_->MarkAborted(txn);
  for (const WriteEntry& w : txn->writeset()) {
    MainRange* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    std::atomic<Value>* sref = r->delta.Slot(w.seq, 0);
    Value expected = txn->id();
    sref->compare_exchange_strong(expected, kAbortedStamp,
                                  std::memory_order_acq_rel);
    if (w.is_insert) primary_.Erase(w.inserted_key);
  }
  txn_manager_->Retire(txn->id());
  txn->set_finished();
  GateExit();
}

// ---------------------------------------------------------------------------
// Writes: inserts and updates both append to the range's delta store
// ---------------------------------------------------------------------------

Status DbmTable::Insert(Txn& session, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  uint64_t rid = next_row_.fetch_add(1, std::memory_order_relaxed);
  MainRange* r = EnsureRange(rid / config_.range_size);
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);
  uint32_t cur = r->occupied.load(std::memory_order_relaxed);
  while (cur < slot + 1 && !r->occupied.compare_exchange_weak(
                               cur, slot + 1, std::memory_order_acq_rel)) {
  }
  if (!primary_.Insert(row[0], rid)) {
    return Status::AlreadyExists("duplicate key");
  }
  uint64_t idx = r->delta.Reserve();
  if (idx == 0) {
    primary_.Erase(row[0]);
    return Status::Busy("delta space exhausted for range");
  }
  const uint32_t ncols = schema_.num_columns();
  for (ColumnId c = 0; c < ncols; ++c) {
    r->delta.Slot(idx, kDeltaHeader + c)->store(row[c],
                                                std::memory_order_relaxed);
  }
  r->delta.Slot(idx, 1)->store(0, std::memory_order_relaxed);
  r->delta.Slot(idx, 2)->store(slot, std::memory_order_relaxed);
  r->delta.Slot(idx, 3)->store(schema_.AllColumns(),
                               std::memory_order_relaxed);
  r->delta.Slot(idx, 0)->store(txn->id(), std::memory_order_release);
  r->indirection[slot].store(idx, std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot,
                                       static_cast<uint32_t>(idx),
                                       /*is_insert=*/true, row[0]});
  return Status::OK();
}

Status DbmTable::Update(Txn& session, Value key, ColumnMask mask,
                        const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  if (mask == 0 || (mask & 1ull) != 0) {
    return Status::InvalidArgument("bad mask");
  }
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  MainRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);

  // Latch-free write-write detection on the indirection (as L-Store).
  auto& ind = r->indirection[slot];
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
                         ? r->delta.Slot(prev, 0)->load(
                               std::memory_order_acquire)
                         : (slot < r->start.size() ? r->start[slot] : kNull);
  if (IsTxnId(latest_raw) && latest_raw != txn->id()) {
    TransactionManager::StateView view = txn_manager_->GetState(latest_raw);
    if (view.found && (view.state == TxnState::kActive ||
                       view.state == TxnState::kPreCommit)) {
      ind.store(iv, std::memory_order_release);
      return Status::Aborted("write-write conflict");
    }
  }

  // Refuse updates of deleted records.
  {
    std::vector<Value> probe(schema_.num_columns(), kNull);
    Status s = ResolveRecord(*r, slot, kMaxTimestamp, txn, 1ull, &probe);
    if (!s.ok()) {
      ind.store(iv, std::memory_order_release);
      return s;
    }
  }

  uint64_t idx = r->delta.Reserve();
  if (idx == 0) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("delta space exhausted for range");
  }

  // Same-transaction stacking: mark the previous own delta superseded
  // when the new one covers all of its columns (Section 3.1).
  if (prev != 0 && latest_raw == txn->id()) {
    std::atomic<Value>* pm = r->delta.Slot(prev, 3);
    Value pmv = pm->load(std::memory_order_acquire);
    if ((mask & SchemaColumns(pmv)) == SchemaColumns(pmv)) {
      pm->store(pmv | kSupersededFlag, std::memory_order_release);
    }
  }
  for (BitIter it(mask); it; ++it) {
    r->delta.Slot(idx, kDeltaHeader + static_cast<uint32_t>(*it))
        ->store(row[*it], std::memory_order_relaxed);
  }
  r->delta.Slot(idx, 1)->store(prev, std::memory_order_relaxed);
  r->delta.Slot(idx, 2)->store(slot, std::memory_order_relaxed);
  r->delta.Slot(idx, 3)->store(mask, std::memory_order_relaxed);
  r->delta.Slot(idx, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot,
                                       static_cast<uint32_t>(idx),
                                       /*is_insert=*/false, 0});
  ind.store(idx, std::memory_order_release);

  // Merge trigger: delta reached the threshold.
  if (config_.enable_merge_thread &&
      r->delta.size() >= config_.merge_threshold) {
    bool expected = false;
    if (r->queued.compare_exchange_strong(expected, true)) {
      {
        std::lock_guard<std::mutex> g(queue_mu_);
        merge_queue_.push_back(rid / config_.range_size);
      }
      queue_cv_.notify_one();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status DbmTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  MainRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);

  auto& ind = r->indirection[slot];
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
                         ? r->delta.Slot(prev, 0)->load(
                               std::memory_order_acquire)
                         : (slot < r->start.size() ? r->start[slot] : kNull);
  if (IsTxnId(latest_raw) && latest_raw != txn->id()) {
    TransactionManager::StateView view = txn_manager_->GetState(latest_raw);
    if (view.found && (view.state == TxnState::kActive ||
                       view.state == TxnState::kPreCommit)) {
      ind.store(iv, std::memory_order_release);
      return Status::Aborted("write-write conflict");
    }
  }
  // Refuse double-delete.
  {
    std::vector<Value> probe(schema_.num_columns(), kNull);
    Status s = ResolveRecord(*r, slot, kMaxTimestamp, txn, 1ull, &probe);
    if (!s.ok()) {
      ind.store(iv, std::memory_order_release);
      return s;
    }
  }
  uint64_t idx = r->delta.Reserve();
  if (idx == 0) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("delta space exhausted for range");
  }
  r->delta.Slot(idx, 1)->store(prev, std::memory_order_relaxed);
  r->delta.Slot(idx, 2)->store(slot, std::memory_order_relaxed);
  r->delta.Slot(idx, 3)->store(kDeleteFlag, std::memory_order_relaxed);
  r->delta.Slot(idx, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot,
                                       static_cast<uint32_t>(idx),
                                       /*is_insert=*/false, 0});
  ind.store(idx, std::memory_order_release);
  return Status::OK();
}

bool DbmTable::VisibleRaw(std::atomic<Value>* sref, Value& raw,
                          Timestamp as_of, Transaction* txn) const {
  for (;;) {
    if (raw == kNull || IsAbortedStamp(raw)) return false;
    if (!IsTxnId(raw)) return raw < as_of;
    if (txn != nullptr && raw == txn->id()) return true;
    TransactionManager::StateView view = txn_manager_->GetState(raw);
    if (!view.found) {
      Value reread = sref->load(std::memory_order_acquire);
      if (reread == raw) {
        std::this_thread::yield();
        continue;
      }
      raw = reread;
      continue;
    }
    if (view.state == TxnState::kCommitted) {
      Value expected = raw;
      sref->compare_exchange_strong(expected, view.commit,
                                    std::memory_order_acq_rel);
      raw = view.commit;
      return raw < as_of;
    }
    if (view.state == TxnState::kAborted) {
      Value expected = raw;
      sref->compare_exchange_strong(expected, kAbortedStamp,
                                    std::memory_order_acq_rel);
      return false;
    }
    if (view.state == TxnState::kPreCommit && as_of != kMaxTimestamp &&
        (view.commit == 0 || view.commit < as_of)) {
      // Pre-commit writer inside this snapshot: wait for its outcome
      // so the snapshot stays internally consistent.
      std::this_thread::yield();
      continue;
    }
    return false;
  }
}

Status DbmTable::ResolveRecord(MainRange& r, uint32_t slot, Timestamp as_of,
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
    Value m = r.delta.Slot(idx, 3)->load(std::memory_order_acquire);
    uint64_t prev = r.delta.Slot(idx, 1)->load(std::memory_order_acquire);
    if (IsSupersededRecord(m)) {
      idx = prev;  // intermediate same-txn delta: implicitly invalid
      continue;
    }
    if (VisibleRaw(sref, raw, as_of, txn)) {
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
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  MainRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  return ResolveRecord(*r, static_cast<uint32_t>(rid % config_.range_size),
                       as_of, txn, mask, out);
}

Status DbmTable::SumColumn(ColumnId col, Timestamp as_of, uint64_t* sum) {
  // Scans are transactions too: they hold the gate, so merges must
  // wait for them (and they wait for merges).
  GateEnter();
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  uint64_t nranges = num_ranges_.load(std::memory_order_acquire);
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    MainRange* r = GetRange(ri);
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
  MainRange* r = GetRange(range_id);
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
    Value raw = r->delta.Slot(idx, 0)->load(std::memory_order_acquire);
    if (raw == kNull || IsAbortedStamp(raw)) continue;
    if (IsTxnId(raw)) {
      TransactionManager::StateView view = txn_manager_->GetState(raw);
      if (view.found && view.state == TxnState::kCommitted) {
        raw = view.commit;
      } else if (!view.found) {
        // Retired: the outcome was stamped into the slot; re-read.
        raw = r->delta.Slot(idx, 0)->load(std::memory_order_acquire);
        if (IsTxnId(raw) || IsAbortedStamp(raw) || raw == kNull) continue;
      } else {
        continue;  // aborted
      }
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

void DbmTable::MergeLoop() {
  for (;;) {
    uint64_t range_id;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return !running_ || !merge_queue_.empty(); });
      if (!running_) return;
      range_id = merge_queue_.front();
      merge_queue_.pop_front();
    }
    MergeRange(range_id);
  }
}

}  // namespace lstore
