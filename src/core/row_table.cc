#include "core/row_table.h"

#include "common/bitutil.h"

namespace lstore {

namespace {
/// Backptr-field flag marking an intermediate same-transaction version
/// (the row-layout analogue of kSupersededFlag).
constexpr Value kRowSupersededBit = 1ull << 62;
}  // namespace

RowRange::RowRange(const TableConfig& config, uint32_t ncols)
    : base(std::make_unique<std::atomic<Value>[]>(
          static_cast<size_t>(config.range_size) * ncols)),
      base_start(std::make_unique<std::atomic<Value>[]>(config.range_size)),
      indirection(
          std::make_unique<std::atomic<uint64_t>[]>(config.range_size)),
      versions(ncols + 2, kChunkRows, kMaxChunks) {
  for (size_t i = 0; i < static_cast<size_t>(config.range_size) * ncols;
       ++i) {
    base[i].store(kNull, std::memory_order_relaxed);
  }
  for (uint32_t i = 0; i < config.range_size; ++i) {
    base_start[i].store(kNull, std::memory_order_relaxed);
    indirection[i].store(0, std::memory_order_relaxed);
  }
}

Status RowTable::Insert(Txn& session, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  Located at;
  LSTORE_RETURN_IF_ERROR(ReserveRow(row, &at));
  RowRange& r = *at.range;
  const uint32_t ncols = schema_.num_columns();
  for (ColumnId c = 0; c < ncols; ++c) {
    r.base[static_cast<size_t>(at.slot) * ncols + c].store(
        row[c], std::memory_order_relaxed);
  }
  r.base_start[at.slot].store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(
      WriteEntry{at.range_id, at.slot, 0, /*is_insert=*/true, row[0], this});
  return Status::OK();
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
    bool visible =
        txn_manager_->Visible(sref, &raw, as_of, txn) == Visibility::kVisible;
    // The superseded bit is read after visibility: a same-transaction
    // successor sets it before its writer commits.
    Value bp = r.VersionSlot(seq, 1)->load(std::memory_order_acquire);
    if (visible && (bp & kRowSupersededBit) == 0) {
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
  if (txn_manager_->Visible(sref, &raw, as_of, txn) != Visibility::kVisible) {
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
  LSTORE_RETURN_IF_ERROR(CheckUpdate(mask, &row, 1));
  return WriteVersion(session.raw(), key, mask, &row);
}

Status RowTable::Delete(Txn& session, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  return WriteVersion(session.raw(), key, 0, nullptr);
}

Status RowTable::WriteVersion(Transaction* txn, Value key, ColumnMask mask,
                              const std::vector<Value>* row) {
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  RowRange& r = *at.range;
  const uint32_t slot = at.slot;
  const uint32_t ncols = schema_.num_columns();

  auto& ind = r.indirection[slot];
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
                         ? r.VersionSlot(prev_seq, 0)->load(
                               std::memory_order_acquire)
                         : r.base_start[slot].load(std::memory_order_acquire);
  if (txn_manager_->InFlightWriter(latest_raw, txn)) {
    ind.store(iv, std::memory_order_release);
    return Status::Aborted("write-write conflict");
  }

  // The current row, own writes included: a deleted record refuses the
  // write, and an update carries the columns it leaves alone.
  std::vector<Value> full(ncols, kNull);
  Status s =
      ResolveRow(r, slot, kMaxTimestamp, txn, schema_.AllColumns(), &full);
  uint32_t seq = 0;
  if (s.ok()) {
    seq = static_cast<uint32_t>(r.versions.Reserve());
    if (seq == 0) s = Status::Busy("version space exhausted for range");
  }
  if (!s.ok()) {
    ind.store(iv, std::memory_order_release);
    return s;
  }
  if (row == nullptr) {
    full.assign(ncols, kNull);
  } else {
    for (BitIter it(mask); it; ++it) full[*it] = (*row)[*it];
  }
  for (ColumnId c = 0; c < ncols; ++c) {
    r.VersionSlot(seq, 2 + c)->store(full[c], std::memory_order_relaxed);
  }
  // Same-transaction stacking: the new complete row covers the previous
  // own version; mark it superseded so readers with a stale chain head
  // skip it post-commit (Section 3.1).
  if (prev_seq != 0 && latest_raw == txn->id()) {
    r.VersionSlot(prev_seq, 1)->fetch_or(kRowSupersededBit,
                                         std::memory_order_release);
  }
  r.VersionSlot(seq, 1)->store(prev_seq, std::memory_order_release);
  r.VersionSlot(seq, 0)->store(txn->id(), std::memory_order_release);
  txn->writeset().push_back(
      WriteEntry{at.range_id, slot, seq, /*is_insert=*/false, 0, this});
  ind.store(seq, std::memory_order_release);
  return Status::OK();
}

Status RowTable::Read(Txn& session, Value key, ColumnMask mask,
                      std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(session, this));
  Transaction* txn = session.raw();
  out->assign(schema_.num_columns(), kNull);
  Located at;
  LSTORE_RETURN_IF_ERROR(Locate(primary_.Get(key), &at));
  return ResolveRow(*at.range, at.slot, ReadTime(txn), txn, mask, out);
}

Status RowTable::SumColumn(ColumnId col, Timestamp as_of,
                           uint64_t* sum) const {
  const uint32_t ncols = schema_.num_columns();
  uint64_t acc = 0;
  std::vector<Value> tmp(ncols, kNull);
  const uint64_t nranges = ranges_.size();
  for (uint64_t ri = 0; ri < nranges; ++ri) {
    RowRange* r = ranges_.Get(ri);
    if (r == nullptr) continue;
    uint32_t occ = r->occupied.load(std::memory_order_acquire);
    for (uint32_t slot = 0; slot < occ; ++slot) {
      uint64_t iv = r->indirection[slot].load(std::memory_order_acquire);
      if (IndirSeq(iv) == 0) {
        // Fast path: never updated; row-major base access.
        std::atomic<Value>* sref = &r->base_start[slot];
        Value raw = sref->load(std::memory_order_acquire);
        if (txn_manager_->Visible(sref, &raw, as_of) == Visibility::kVisible) {
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
