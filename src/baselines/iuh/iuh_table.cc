#include "baselines/iuh/iuh_table.h"

#include "common/bitutil.h"

namespace lstore {

IuhRange::IuhRange(const TableConfig& config, uint32_t ncols)
    : data(std::make_unique<std::atomic<Value>[]>(
          static_cast<size_t>(config.range_size) * ncols)),
      start(std::make_unique<std::atomic<Value>[]>(config.range_size)),
      indirection(
          std::make_unique<std::atomic<uint64_t>[]>(config.range_size)),
      deleted(std::make_unique<std::atomic<uint8_t>[]>(config.range_size)),
      page_latches((config.range_size + config.base_page_slots - 1) /
                   config.base_page_slots) {
  for (size_t i = 0; i < static_cast<size_t>(config.range_size) * ncols;
       ++i) {
    data[i].store(kNull, std::memory_order_relaxed);
  }
  for (uint32_t i = 0; i < config.range_size; ++i) {
    start[i].store(kNull, std::memory_order_relaxed);
    indirection[i].store(0, std::memory_order_relaxed);
    deleted[i].store(0, std::memory_order_relaxed);
  }
}

IuhTable::IuhTable(Schema schema, TableConfig config,
                   TransactionManager* txn_manager)
    : EngineCore("iuh", std::move(schema), config, txn_manager),
      history_(kHistHeader + schema_.num_columns(), kHistChunk,
               kHistMaxChunks) {}

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
    IuhRange* r = ranges_.Get(it->range_id);
    if (r == nullptr) continue;
    RWSpinLatch& latch = PageLatch(*r, it->base_slot);
    latch.LockExclusive();
    if (it->is_insert) {
      r->deleted[it->base_slot].store(1, std::memory_order_release);
      r->start[it->base_slot].store(kAbortedStamp, std::memory_order_release);
      latch.UnlockExclusive();
      continue;
    }
    uint64_t hist_idx = it->inserted_key;  // repurposed: undo pointer
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
  EngineCore::AbortTxn(txn);
}

Status IuhTable::Insert(Txn& session, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Located at;
  LSTORE_RETURN_IF_ERROR(ReserveRow(row, &at));
  IuhRange& r = *at.range;
  const uint32_t ncols = schema_.num_columns();
  RWSpinLatch& latch = PageLatch(r, at.slot);
  latch.LockExclusive();
  for (ColumnId c = 0; c < ncols; ++c) {
    r.data[static_cast<size_t>(at.slot) * ncols + c].store(
        row[c], std::memory_order_relaxed);
  }
  r.start[at.slot].store(txn->id(), std::memory_order_release);
  latch.UnlockExclusive();
  txn->writeset().push_back(
      WriteEntry{at.range_id, at.slot, 0, /*is_insert=*/true, row[0], this});
  return Status::OK();
}

Status IuhTable::ResolveUnderLatch(IuhRange& r, uint32_t slot,
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

bool IuhTable::CurrentStart(IuhRange& r, uint32_t slot, Transaction* txn,
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
  LSTORE_RETURN_IF_ERROR(CheckUpdate(mask, &row, 1));
  return WriteInPlace(session.raw(), key, mask, &row);
}

Status IuhTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  return WriteInPlace(session.raw(), key, 0, nullptr);
}

Status IuhTable::WriteInPlace(Transaction* txn, Value key, ColumnMask mask,
                              const std::vector<Value>* row) {
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  IuhRange& r = *at.range;
  const uint32_t slot = at.slot;
  const uint32_t ncols = schema_.num_columns();

  RWSpinLatch& latch = PageLatch(r, slot);
  latch.LockExclusive();
  Value raw = 0;
  uint64_t hist_idx = 0;
  Status s = Status::OK();
  if (!CurrentStart(r, slot, txn, &raw)) {
    s = Status::Aborted("write-write conflict");
  } else if (r.deleted[slot].load(std::memory_order_acquire) != 0) {
    s = Status::NotFound("deleted");
  } else if ((hist_idx = history_.Reserve()) == 0) {
    s = Status::Busy("history space exhausted");
  }
  if (!s.ok()) {
    latch.UnlockExclusive();
    return s;
  }

  // Append the pre-image to the history, then write in place.
  HistSlot(hist_idx, 0)->store(at.range_id * config_.range_size + slot,
                               std::memory_order_relaxed);
  HistSlot(hist_idx, 1)->store(
      r.indirection[slot].load(std::memory_order_acquire),
      std::memory_order_relaxed);
  HistSlot(hist_idx, 2)->store(raw, std::memory_order_relaxed);
  HistSlot(hist_idx, 3)->store(row == nullptr ? kDeleteFlag : mask,
                               std::memory_order_release);
  for (BitIter it(mask); it; ++it) {
    HistSlot(hist_idx, kHistHeader + static_cast<uint32_t>(*it))
        ->store(r.data[static_cast<size_t>(slot) * ncols + *it].load(
                    std::memory_order_acquire),
                std::memory_order_relaxed);
  }
  r.indirection[slot].store(hist_idx, std::memory_order_release);
  for (BitIter it(mask); it; ++it) {
    r.data[static_cast<size_t>(slot) * ncols + *it].store(
        (*row)[*it], std::memory_order_release);
  }
  if (row == nullptr) r.deleted[slot].store(1, std::memory_order_release);
  r.start[slot].store(txn->id(), std::memory_order_release);
  latch.UnlockExclusive();

  txn->writeset().push_back(
      WriteEntry{at.range_id, slot, 0, /*is_insert=*/false, hist_idx, this});
  return Status::OK();
}

Status IuhTable::Read(Txn& session, Value key, ColumnMask mask,
                      std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  out->assign(schema_.num_columns(), kNull);
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  // Readers pay the shared page latch — this is the structural
  // contention with in-place writers (Section 6.2).
  RWSpinLatch& latch = PageLatch(*at.range, at.slot);
  latch.LockShared();
  Status s =
      ResolveUnderLatch(*at.range, at.slot, ReadTime(txn), txn, mask, out);
  latch.UnlockShared();
  return s;
}

Status IuhTable::SumColumn(ColumnId col, Timestamp as_of,
                           uint64_t* sum) const {
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  const uint64_t nranges = ranges_.size();
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    IuhRange* r = ranges_.Get(ri);
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
