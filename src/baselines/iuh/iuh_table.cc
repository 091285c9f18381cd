#include "baselines/iuh/iuh_table.h"

#include "common/bitutil.h"

namespace lstore {

IuhTable::MainRange::MainRange(uint32_t range_size, uint32_t ncols,
                               uint32_t page_slots)
    : data(std::make_unique<std::atomic<Value>[]>(
          static_cast<size_t>(range_size) * ncols)),
      start(std::make_unique<std::atomic<Value>[]>(range_size)),
      indirection(std::make_unique<std::atomic<uint64_t>[]>(range_size)),
      deleted(std::make_unique<std::atomic<uint8_t>[]>(range_size)),
      page_latches((range_size + page_slots - 1) / page_slots) {
  for (size_t i = 0; i < static_cast<size_t>(range_size) * ncols; ++i) {
    data[i].store(kNull, std::memory_order_relaxed);
  }
  for (uint32_t i = 0; i < range_size; ++i) {
    start[i].store(kNull, std::memory_order_relaxed);
    indirection[i].store(0, std::memory_order_relaxed);
    deleted[i].store(0, std::memory_order_relaxed);
  }
}

IuhTable::IuhTable(Schema schema, TableConfig config,
                   TransactionManager* txn_manager)
    : schema_(std::move(schema)),
      config_(config),
      ranges_(std::make_unique<std::atomic<MainRange*>[]>(kMaxRanges)),
      history_(kHistHeader + schema_.num_columns(), kHistChunk,
               kHistMaxChunks) {
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

IuhTable::~IuhTable() {
  for (uint64_t i = 0; i < kMaxRanges; ++i) {
    delete ranges_[i].load(std::memory_order_relaxed);
  }
}

IuhTable::MainRange* IuhTable::GetRange(uint64_t id) const {
  if (id >= kMaxRanges) return nullptr;
  return ranges_[id].load(std::memory_order_acquire);
}

IuhTable::MainRange* IuhTable::EnsureRange(uint64_t id) {
  MainRange* r = GetRange(id);
  if (r != nullptr) return r;
  SpinGuard g(ranges_latch_);
  r = ranges_[id].load(std::memory_order_acquire);
  if (r == nullptr) {
    r = new MainRange(config_.range_size, schema_.num_columns(),
                      config_.base_page_slots);
    ranges_[id].store(r, std::memory_order_release);
    uint64_t n = num_ranges_.load(std::memory_order_relaxed);
    while (n < id + 1 && !num_ranges_.compare_exchange_weak(
                             n, id + 1, std::memory_order_acq_rel)) {
    }
  }
  return r;
}

Txn IuhTable::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_->Begin(iso));
}

Status IuhTable::CommitTxn(Transaction* txn) {
  if (txn->finished()) return Status::InvalidArgument("finished");
  Timestamp commit_time = txn_manager_->EnterPreCommit(txn);
  txn_manager_->MarkCommitted(txn);
  for (const WriteEntry& w : txn->writeset()) {
    MainRange* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    std::atomic<Value>* sref = &r->start[w.base_slot];
    Value expected = txn->id();
    sref->compare_exchange_strong(expected, commit_time,
                                  std::memory_order_acq_rel);
  }
  txn_manager_->Retire(txn->id());
  txn->set_finished();
  return Status::OK();
}

void IuhTable::AbortTxn(Transaction* txn) {
  if (txn->finished()) return;
  const uint32_t ncols = schema_.num_columns();
  // In-place storage requires *undo*: restore pre-images in reverse
  // order (this, and the undo logging it implies, is a structural cost
  // of the baseline — Section 6.1). The undo runs BEFORE MarkAborted:
  // meanwhile readers and writers see an active id (invisible, or a
  // conflict), and no thread can lazily stamp kAbortedStamp over a
  // slot whose pre-image is not back yet — the next writer would take
  // the aborted values as its own pre-image.
  auto& ws = txn->writeset();
  for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
    MainRange* r = GetRange(it->range_id);
    if (r == nullptr) continue;
    if (it->is_insert) {
      RWSpinLatch& latch = PageLatch(*r, it->base_slot);
      latch.LockExclusive();
      r->deleted[it->base_slot].store(1, std::memory_order_release);
      r->start[it->base_slot].store(kAbortedStamp, std::memory_order_release);
      latch.UnlockExclusive();
      primary_.Erase(it->inserted_key);
      continue;
    }
    uint64_t hist_idx = it->inserted_key;  // repurposed: undo pointer
    RWSpinLatch& latch = PageLatch(*r, it->base_slot);
    latch.LockExclusive();
    if (r->indirection[it->base_slot].load(std::memory_order_acquire) ==
        hist_idx) {
      Value mask_flags = HistSlot(hist_idx, 3)->load(std::memory_order_acquire);
      ColumnMask mask = SchemaColumns(mask_flags);
      for (BitIter b(mask); b; ++b) {
        Value old = HistSlot(hist_idx, kHistHeader + static_cast<uint32_t>(*b))
                        ->load(std::memory_order_acquire);
        r->data[static_cast<size_t>(it->base_slot) * ncols + *b].store(
            old, std::memory_order_release);
      }
      if (IsDeleteRecord(mask_flags)) {
        r->deleted[it->base_slot].store(0, std::memory_order_release);
      }
      r->start[it->base_slot].store(
          HistSlot(hist_idx, 2)->load(std::memory_order_acquire),
          std::memory_order_release);
      r->indirection[it->base_slot].store(
          HistSlot(hist_idx, 1)->load(std::memory_order_acquire),
          std::memory_order_release);
    }
    latch.UnlockExclusive();
  }
  txn_manager_->MarkAborted(txn);
  txn_manager_->Retire(txn->id());
  txn->set_finished();
}

Status IuhTable::Insert(Txn& session, const std::vector<Value>& row) {
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
    r->start[slot].store(kAbortedStamp, std::memory_order_release);
    r->deleted[slot].store(1, std::memory_order_release);
    return Status::AlreadyExists("duplicate key");
  }
  const uint32_t ncols = schema_.num_columns();
  RWSpinLatch& latch = PageLatch(*r, slot);
  latch.LockExclusive();
  for (ColumnId c = 0; c < ncols; ++c) {
    r->data[static_cast<size_t>(slot) * ncols + c].store(
        row[c], std::memory_order_relaxed);
  }
  r->start[slot].store(txn->id(), std::memory_order_release);
  latch.UnlockExclusive();
  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, 0,
                                       /*is_insert=*/true, row[0]});
  return Status::OK();
}

Status IuhTable::ResolveUnderLatch(MainRange& r, uint32_t slot,
                                   Timestamp as_of, Transaction* txn,
                                   ColumnMask mask,
                                   std::vector<Value>* out) const {
  const uint32_t ncols = schema_.num_columns();
  // Current (in-place) version.
  std::vector<Value> vals(ncols, kNull);
  for (BitIter it(mask); it; ++it) {
    vals[*it] = r.data[static_cast<size_t>(slot) * ncols + *it].load(
        std::memory_order_acquire);
  }
  std::atomic<Value>* sref = &r.start[slot];
  Value raw = sref->load(std::memory_order_acquire);
  bool cur_deleted = r.deleted[slot].load(std::memory_order_acquire) != 0;
  if (txn_manager_->Visible(sref, &raw, as_of, txn) == Visibility::kVisible) {
    if (cur_deleted) return Status::NotFound("deleted");
    for (BitIter it(mask); it; ++it) (*out)[*it] = vals[*it];
    return Status::OK();
  }
  // Walk the history chain, applying pre-images newest -> oldest until
  // a visible version emerges.
  uint64_t idx = r.indirection[slot].load(std::memory_order_acquire);
  Value cur_start = raw;
  while (idx != 0) {
    Value mask_flags = HistSlot(idx, 3)->load(std::memory_order_acquire);
    ColumnMask m = SchemaColumns(mask_flags) & mask;
    for (BitIter it(m); it; ++it) {
      vals[*it] = HistSlot(idx, kHistHeader + static_cast<uint32_t>(*it))
                      ->load(std::memory_order_acquire);
    }
    if (IsDeleteRecord(mask_flags)) cur_deleted = false;  // undo the delete
    cur_start = HistSlot(idx, 2)->load(std::memory_order_acquire);
    if (cur_start != kNull && !IsTxnId(cur_start) &&
        !IsAbortedStamp(cur_start) && cur_start < as_of) {
      if (cur_deleted) return Status::NotFound("deleted");
      for (BitIter it(mask); it; ++it) (*out)[*it] = vals[*it];
      return Status::OK();
    }
    idx = HistSlot(idx, 1)->load(std::memory_order_acquire);
  }
  return Status::NotFound("no visible version");
}

bool IuhTable::CurrentStart(MainRange& r, uint32_t slot, Transaction* txn,
                            Value* raw) const {
  std::atomic<Value>* sref = &r.start[slot];
  *raw = sref->load(std::memory_order_acquire);
  if (txn_manager_->InFlightWriter(*raw, txn)) return false;
  // A committed writer's stamp may still be pending: the pre-image must
  // carry the commit time, or an undo of this update would restore an
  // id that outlives its transaction.
  txn_manager_->Resolve(sref, raw);
  return true;
}

Status IuhTable::Update(Txn& session, Value key, ColumnMask mask,
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
  const uint32_t ncols = schema_.num_columns();

  RWSpinLatch& latch = PageLatch(*r, slot);
  latch.LockExclusive();

  Value raw = 0;
  if (!CurrentStart(*r, slot, txn, &raw)) {
    latch.UnlockExclusive();
    return Status::Aborted("write-write conflict");
  }
  if (r->deleted[slot].load(std::memory_order_acquire) != 0) {
    latch.UnlockExclusive();
    return Status::NotFound("deleted");
  }

  // Append the pre-image to the history, then update in place.
  uint64_t hist_idx = history_.Reserve();
  if (hist_idx == 0) {
    latch.UnlockExclusive();
    return Status::Busy("history space exhausted");
  }
  HistSlot(hist_idx, 0)->store(rid, std::memory_order_relaxed);
  HistSlot(hist_idx, 1)->store(
      r->indirection[slot].load(std::memory_order_acquire),
      std::memory_order_relaxed);
  HistSlot(hist_idx, 2)->store(raw, std::memory_order_relaxed);
  HistSlot(hist_idx, 3)->store(mask, std::memory_order_release);
  for (BitIter it(mask); it; ++it) {
    HistSlot(hist_idx, kHistHeader + static_cast<uint32_t>(*it))
        ->store(r->data[static_cast<size_t>(slot) * ncols + *it].load(
                    std::memory_order_acquire),
                std::memory_order_relaxed);
  }
  r->indirection[slot].store(hist_idx, std::memory_order_release);
  for (BitIter it(mask); it; ++it) {
    r->data[static_cast<size_t>(slot) * ncols + *it].store(
        row[*it], std::memory_order_release);
  }
  r->start[slot].store(txn->id(), std::memory_order_release);
  latch.UnlockExclusive();

  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, 0,
                                       /*is_insert=*/false, hist_idx});
  return Status::OK();
}

Status IuhTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  MainRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);

  RWSpinLatch& latch = PageLatch(*r, slot);
  latch.LockExclusive();
  Value raw = 0;
  if (!CurrentStart(*r, slot, txn, &raw)) {
    latch.UnlockExclusive();
    return Status::Aborted("write-write conflict");
  }
  if (r->deleted[slot].load(std::memory_order_acquire) != 0) {
    latch.UnlockExclusive();
    return Status::NotFound("already deleted");
  }
  uint64_t hist_idx = history_.Reserve();
  if (hist_idx == 0) {
    latch.UnlockExclusive();
    return Status::Busy("history space exhausted");
  }
  HistSlot(hist_idx, 0)->store(rid, std::memory_order_relaxed);
  HistSlot(hist_idx, 1)->store(
      r->indirection[slot].load(std::memory_order_acquire),
      std::memory_order_relaxed);
  HistSlot(hist_idx, 2)->store(raw, std::memory_order_relaxed);
  HistSlot(hist_idx, 3)->store(kDeleteFlag, std::memory_order_release);
  r->indirection[slot].store(hist_idx, std::memory_order_release);
  r->deleted[slot].store(1, std::memory_order_release);
  r->start[slot].store(txn->id(), std::memory_order_release);
  latch.UnlockExclusive();

  txn->writeset().push_back(WriteEntry{rid / config_.range_size, slot, 0,
                                       /*is_insert=*/false, hist_idx});
  return Status::OK();
}

Status IuhTable::Read(Txn& session, Value key, ColumnMask mask,
                      std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  out->assign(schema_.num_columns(), kNull);
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  MainRange* r = GetRange(rid / config_.range_size);
  if (r == nullptr) return Status::NotFound("no range");
  uint32_t slot = static_cast<uint32_t>(rid % config_.range_size);
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  // Readers pay the shared page latch — this is the structural
  // contention with in-place writers (Section 6.2).
  RWSpinLatch& latch = PageLatch(*r, slot);
  latch.LockShared();
  Status s = ResolveUnderLatch(*r, slot, as_of, txn, mask, out);
  latch.UnlockShared();
  return s;
}

Status IuhTable::SumColumn(ColumnId col, Timestamp as_of,
                           uint64_t* sum) const {
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  uint64_t nranges = num_ranges_.load(std::memory_order_acquire);
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    MainRange* r = GetRange(ri);
    if (r == nullptr) continue;
    uint32_t occ = r->occupied.load(std::memory_order_acquire);
    uint32_t pages = (occ + config_.base_page_slots - 1) /
                     config_.base_page_slots;
    for (uint32_t p = 0; p < pages; ++p) {
      uint32_t lo = p * config_.base_page_slots;
      uint32_t hi = std::min(occ, lo + config_.base_page_slots);
      RWSpinLatch& latch = r->page_latches[p];
      latch.LockShared();
      for (uint32_t slot = lo; slot < hi; ++slot) {
        tmp[col] = kNull;
        Status s = ResolveUnderLatch(*r, slot, as_of, nullptr, 1ull << col,
                                     &tmp);
        if (s.ok() && tmp[col] != kNull) acc += tmp[col];
      }
      latch.UnlockShared();
    }
  }
  *sum = acc;
  return Status::OK();
}

}  // namespace lstore
