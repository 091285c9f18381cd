#include "core/row_table.h"

#include <thread>

#include "common/bitutil.h"

namespace lstore {

namespace {
/// Backptr-field flag marking an intermediate same-transaction version
/// (the row-layout analogue of kSupersededFlag).
constexpr Value kRowSupersededBit = 1ull << 62;
}  // namespace

RowTable::RowRange::RowRange(uint32_t range_size, uint32_t ncols)
    : base(std::make_unique<std::atomic<Value>[]>(
          static_cast<size_t>(range_size) * ncols)),
      base_start(std::make_unique<std::atomic<Value>[]>(range_size)),
      indirection(std::make_unique<std::atomic<uint64_t>[]>(range_size)),
      versions(ncols + 2, kChunkRows, kMaxChunks) {
  for (size_t i = 0; i < static_cast<size_t>(range_size) * ncols; ++i) {
    base[i].store(kNull, std::memory_order_relaxed);
  }
  for (uint32_t i = 0; i < range_size; ++i) {
    base_start[i].store(kNull, std::memory_order_relaxed);
    indirection[i].store(0, std::memory_order_relaxed);
  }
}

RowTable::RowTable(Schema schema, TableConfig config,
                   TransactionManager* txn_manager)
    : schema_(std::move(schema)),
      config_(config),
      ranges_(std::make_unique<std::atomic<RowRange*>[]>(kMaxRanges)) {
  for (uint64_t i = 0; i < kMaxRanges; ++i) {
    ranges_[i].store(nullptr, std::memory_order_relaxed);
  }
  if (txn_manager != nullptr) {
    txn_manager_ = txn_manager;
  } else {
    owned_txn_manager_ = std::make_unique<TransactionManager>();
    txn_manager_ = owned_txn_manager_.get();
  }
}

RowTable::~RowTable() {
  for (uint64_t i = 0; i < kMaxRanges; ++i) {
    delete ranges_[i].load(std::memory_order_relaxed);
  }
}

RowTable::RowRange* RowTable::GetRange(uint64_t id) const {
  if (id >= kMaxRanges) return nullptr;
  return ranges_[id].load(std::memory_order_acquire);
}

RowTable::RowRange* RowTable::EnsureRange(uint64_t id) {
  RowRange* r = GetRange(id);
  if (r != nullptr) return r;
  SpinGuard g(ranges_latch_);
  r = ranges_[id].load(std::memory_order_acquire);
  if (r == nullptr) {
    r = new RowRange(config_.range_size, schema_.num_columns());
    ranges_[id].store(r, std::memory_order_release);
    uint64_t n = num_ranges_.load(std::memory_order_relaxed);
    while (n < id + 1 && !num_ranges_.compare_exchange_weak(
                             n, id + 1, std::memory_order_acq_rel)) {
    }
  }
  return r;
}

Txn RowTable::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_->Begin(iso));
}

Status RowTable::CommitTxn(Transaction* txn) {
  if (txn->finished()) return Status::InvalidArgument("finished");
  Timestamp commit_time = txn_manager_->EnterPreCommit(txn);
  txn_manager_->MarkCommitted(txn);
  for (const WriteEntry& w : txn->writeset()) {
    RowRange* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    std::atomic<Value>* sref = w.is_insert ? &r->base_start[w.base_slot]
                                           : r->VersionSlot(w.seq, 0);
    Value expected = txn->id();
    sref->compare_exchange_strong(expected, commit_time,
                                  std::memory_order_acq_rel);
  }
  txn_manager_->Retire(txn->id());
  txn->set_finished();
  return Status::OK();
}

void RowTable::AbortTxn(Transaction* txn) {
  if (txn->finished()) return;
  txn_manager_->MarkAborted(txn);
  for (const WriteEntry& w : txn->writeset()) {
    RowRange* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    std::atomic<Value>* sref = w.is_insert ? &r->base_start[w.base_slot]
                                           : r->VersionSlot(w.seq, 0);
    Value expected = txn->id();
    sref->compare_exchange_strong(expected, kAbortedStamp,
                                  std::memory_order_acq_rel);
    if (w.is_insert) primary_.Erase(w.inserted_key);
  }
  txn_manager_->Retire(txn->id());
  txn->set_finished();
}

Status RowTable::Insert(Txn& session, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  uint64_t rid = next_row_.fetch_add(1, std::memory_order_relaxed);
  RowRange* r = EnsureRange(rid / config_.range_size);
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);
  uint32_t cur = r->occupied.load(std::memory_order_relaxed);
  while (cur < slot + 1 && !r->occupied.compare_exchange_weak(
                               cur, slot + 1, std::memory_order_acq_rel)) {
  }
  if (!primary_.Insert(row[0], rid)) {
    r->base_start[slot].store(kAbortedStamp, std::memory_order_release);
    return Status::AlreadyExists("duplicate key");
  }
  const uint32_t ncols = schema_.num_columns();
  for (ColumnId c = 0; c < ncols; ++c) {
    r->base[static_cast<size_t>(slot) * ncols + c].store(
        row[c], std::memory_order_relaxed);
  }
  r->base_start[slot].store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, 0,
                                       /*is_insert=*/true, row[0]});
  return Status::OK();
}

bool RowTable::VisibleRaw(std::atomic<Value>* sref, Value& raw,
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

Status RowTable::ResolveRow(RowRange& r, uint32_t slot, Timestamp as_of,
                            Transaction* txn, ColumnMask mask,
                            std::vector<Value>* out) const {
  const uint32_t ncols = schema_.num_columns();
  uint64_t iv = r.indirection[slot].load(std::memory_order_acquire);
  uint32_t seq = IndirSeq(iv);
  // Walk the (short) version chain: each tail version is complete.
  while (seq != 0) {
    std::atomic<Value>* sref = r.VersionSlot(seq, 0);
    Value raw = sref->load(std::memory_order_acquire);
    Value bp = r.VersionSlot(seq, 1)->load(std::memory_order_acquire);
    bool superseded = (bp & kRowSupersededBit) != 0;
    if (!superseded && VisibleRaw(sref, raw, as_of, txn)) {
      // Delete marker: the key column of a delete version is ∅.
      if (r.VersionSlot(seq, 2)->load(std::memory_order_acquire) == kNull) {
        return Status::NotFound("deleted");
      }
      for (BitIter it(mask); it; ++it) {
        (*out)[*it] =
            r.VersionSlot(seq, 2 + static_cast<uint32_t>(*it))
                ->load(std::memory_order_acquire);
      }
      return Status::OK();
    }
    seq = static_cast<uint32_t>(bp & kMaxTailSeq);
  }
  // Base row.
  std::atomic<Value>* sref = &r.base_start[slot];
  Value raw = sref->load(std::memory_order_acquire);
  if (!VisibleRaw(sref, raw, as_of, txn)) {
    return Status::NotFound("not visible");
  }
  for (BitIter it(mask); it; ++it) {
    (*out)[*it] = r.base[static_cast<size_t>(slot) * ncols + *it].load(
        std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RowTable::Update(Txn& session, Value key, ColumnMask mask,
                        const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  if (mask == 0 || (mask & 1ull) != 0) {
    return Status::InvalidArgument("bad mask");
  }
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  RowRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);
  const uint32_t ncols = schema_.num_columns();

  auto& ind = r->indirection[slot];
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if (IndirLatched(iv)) return Status::Aborted("write-write conflict");
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  uint32_t prev_seq = IndirSeq(iv);
  Value latest_raw = prev_seq != 0
                         ? r->VersionSlot(prev_seq, 0)->load(
                               std::memory_order_acquire)
                         : r->base_start[slot].load(std::memory_order_acquire);
  if (IsTxnId(latest_raw) && latest_raw != txn->id()) {
    TransactionManager::StateView view = txn_manager_->GetState(latest_raw);
    if (view.found && (view.state == TxnState::kActive ||
                       view.state == TxnState::kPreCommit)) {
      ind.store(iv, std::memory_order_release);
      return Status::Aborted("write-write conflict");
    }
  }

  // Same-transaction stacking: the previous own version is fully
  // covered by the new complete row; mark it superseded so readers
  // with a stale chain head skip it post-commit (Section 3.1).
  if (prev_seq != 0 && latest_raw == txn->id()) {
    std::atomic<Value>* bp = r->VersionSlot(prev_seq, 1);
    bp->fetch_or(kRowSupersededBit, std::memory_order_release);
  }

  // Materialize the complete new row (current values + changes).
  std::vector<Value> full(ncols, kNull);
  {
    // Read the newest committed (or own) values.
    Status s =
        ResolveRow(*r, slot, kMaxTimestamp, txn, schema_.AllColumns(), &full);
    if (!s.ok()) {
      ind.store(iv, std::memory_order_release);
      return s;
    }
  }
  for (BitIter it(mask); it; ++it) full[*it] = row[*it];

  uint32_t seq = static_cast<uint32_t>(r->versions.Reserve());
  if (seq == 0) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("version space exhausted for range");
  }
  for (ColumnId c = 0; c < ncols; ++c) {
    r->VersionSlot(seq, 2 + c)->store(full[c], std::memory_order_relaxed);
  }
  r->VersionSlot(seq, 1)->store(prev_seq, std::memory_order_release);
  r->VersionSlot(seq, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, seq,
                                       /*is_insert=*/false, 0});
  ind.store(seq, std::memory_order_release);
  return Status::OK();
}

Status RowTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  RowRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);
  const uint32_t ncols = schema_.num_columns();

  auto& ind = r->indirection[slot];
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if (IndirLatched(iv)) return Status::Aborted("write-write conflict");
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  uint32_t prev_seq = IndirSeq(iv);
  Value latest_raw = prev_seq != 0
                         ? r->VersionSlot(prev_seq, 0)->load(
                               std::memory_order_acquire)
                         : r->base_start[slot].load(std::memory_order_acquire);
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
    std::vector<Value> probe(ncols, kNull);
    Status s = ResolveRow(*r, slot, kMaxTimestamp, txn, 1ull, &probe);
    if (!s.ok()) {
      ind.store(iv, std::memory_order_release);
      return s;
    }
  }
  if (prev_seq != 0 && latest_raw == txn->id()) {
    r->VersionSlot(prev_seq, 1)->fetch_or(kRowSupersededBit,
                                          std::memory_order_release);
  }
  uint32_t seq = static_cast<uint32_t>(r->versions.Reserve());
  if (seq == 0) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("version space exhausted for range");
  }
  for (ColumnId c = 0; c < ncols; ++c) {
    r->VersionSlot(seq, 2 + c)->store(kNull, std::memory_order_relaxed);
  }
  r->VersionSlot(seq, 1)->store(prev_seq, std::memory_order_release);
  r->VersionSlot(seq, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, seq,
                                       /*is_insert=*/false, 0});
  ind.store(seq, std::memory_order_release);
  return Status::OK();
}

Status RowTable::Read(Txn& session, Value key, ColumnMask mask,
                      std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  out->assign(schema_.num_columns(), kNull);
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  RowRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  return ResolveRow(*r, static_cast<uint32_t>(rid % config_.range_size),
                    as_of, txn, mask, out);
}

Status RowTable::SumColumn(ColumnId col, Timestamp as_of,
                           uint64_t* sum) const {
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  uint64_t nranges = num_ranges_.load(std::memory_order_acquire);
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    RowRange* r = GetRange(ri);
    if (r == nullptr) continue;
    uint32_t occ = r->occupied.load(std::memory_order_acquire);
    for (uint32_t slot = 0; slot < occ; ++slot) {
      uint64_t iv = r->indirection[slot].load(std::memory_order_acquire);
      if (IndirSeq(iv) == 0) {
        // Fast path: never updated; row-major base access.
        std::atomic<Value>* sref = &r->base_start[slot];
        Value raw = sref->load(std::memory_order_acquire);
        if (VisibleRaw(sref, raw, as_of, nullptr)) {
          acc += r->base[static_cast<size_t>(slot) * ncols + col].load(
              std::memory_order_relaxed);
        }
        continue;
      }
      tmp[col] = kNull;
      Status s = ResolveRow(*r, slot, as_of, nullptr, 1ull << col, &tmp);
      if (s.ok() && tmp[col] != kNull) acc += tmp[col];
    }
  }
  *sum = acc;
  return Status::OK();
}

}  // namespace lstore
