// The update range's operations: the 2-hop read path of Section 2.2,
// tail appends (Section 3), the insert merge of Section 3.2, the update
// merge of Algorithm 1 (Section 4.1.1), historic compression (Section
// 4.3), and the per-range steps of checkpoint and recovery (Section
// 5.1.3).

#include "core/range.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/inline_buffer.h"
#include "core/historic.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// A merge's working copy of `old`'s first `n` slots (∅ past them),
/// read through one pin and decoded a block at a time.
std::vector<Value> CopySegment(const BaseSegment* old, uint32_t n) {
  std::vector<Value> vals(n, kNull);
  if (old == nullptr) return vals;
  PageHandle page = old->Pin();
  CompressedColumn::Cursor cur = page.cursor();
  for (uint32_t s = 0; s < std::min(n, old->num_slots); ++s) {
    vals[s] = cur.At(s);
  }
  return vals;
}

/// A segment of `vals` at lineage `tps`, its page built by the table's
/// factory.
BaseSegment* NewSegment(const RangeContext& ctx, uint32_t tps,
                        std::vector<Value> vals) {
  const auto slots = static_cast<uint32_t>(vals.size());
  return new BaseSegment{tps, slots, ctx.make_page(CompressedColumn::Build(
                                         std::move(vals),
                                         ctx.config->compress_merged_pages))};
}

}  // namespace

Range::Range(uint64_t id, const RangeContext* ctx)
    : id_(id),
      ctx_(ctx),
      inserts_(ctx->num_columns, ctx->config->tail_page_slots),
      updates_(ctx->num_columns, ctx->config->tail_page_slots),
      base_(ctx->num_columns + kBaseMetaColumns) {}

Range::~Range() {
  for (auto& b : base_) delete b.load(std::memory_order_acquire);
  delete historic_.load(std::memory_order_acquire);
  delete meta_.load(std::memory_order_acquire);
}

Range::SlotMeta* Range::EnsureMeta() {
  SlotMeta* m = meta_.load(std::memory_order_acquire);
  if (m != nullptr) return m;
  auto* fresh = new SlotMeta(ctx_->config->range_size,
                             ctx_->num_columns > kIndirEverColumns);
  if (meta_.compare_exchange_strong(m, fresh, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return m;
}

Value Range::BaseValue(uint32_t slot, uint32_t physical_col) const {
  const BaseSegment* seg = segment(physical_col);
  if (seg != nullptr && slot < seg->num_slots) return seg->Get(slot);
  // Not insert-merged yet: the record lives in the table-level tail
  // pages (Section 3.2) at the aligned position slot+1.
  const uint32_t ncols = ctx_->num_columns;
  if (physical_col < ncols) {
    return inserts_.Read(slot + 1, kTailMetaColumns + physical_col);
  }
  switch (physical_col - ncols) {
    case kBaseStartTime:
    case kBaseLastUpdated:
      return inserts_.Read(slot + 1, kTailStartTime);
    case kBaseSchemaEnc:
      return 0;
  }
  return kNull;
}

// ---------------------------------------------------------------------------
// Record resolution (the 2-hop read path of Section 2.2)
// ---------------------------------------------------------------------------

Status Range::Resolve(uint32_t slot, const ReadSpec& spec, ColumnMask needed,
                      std::vector<Value>* out, uint32_t* observed_seq) {
  Status status = Status::OK();
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (attempt > 0) std::this_thread::yield();
    bool consistent = true;
    status = ResolveOnce(slot, spec, needed, out, observed_seq, &consistent);
    // Theorem 2: an inconsistent read (detected via the in-page
    // lineage) is repaired by re-resolving against fresh state.
    if (consistent) return status;
  }
  std::fprintf(stderr,
               "lstore: ResolveRecord retries exhausted slot=%u as_of=%llu"
               " tps=%u\n",
               slot, (unsigned long long)spec.as_of, merged_tps());
  return status;
}

Status Range::ResolveOnce(uint32_t slot, const ReadSpec& spec,
                          ColumnMask needed, std::vector<Value>* out,
                          uint32_t* observed_seq, bool* consistent) {
  constexpr uint32_t kInvisibleSeq = 0xFFFFFFFFu;
  if (observed_seq != nullptr) *observed_seq = kInvisibleSeq;
  const uint32_t ncols = ctx_->num_columns;
  TransactionManager* tm = ctx_->txn_manager;

  // 1. Base record (original insert) visibility.
  if (slot < based_.load(std::memory_order_acquire)) {
    Value start = BaseMeta(slot, kBaseStartTime);
    if (!(start != kNull && start < spec.as_of)) {
      // Insert-merged starts are stable commit times; kNull marks an
      // aborted insert.
      return Status::NotFound("record not visible");
    }
  } else {
    std::atomic<Value>* sref = inserts_.StartTimeSlot(slot + 1);
    Value raw = sref->load(std::memory_order_acquire);
    Visibility v = tm->Visible(sref, &raw, spec.as_of, spec.txn,
                               spec.speculative);
    if (v == Visibility::kInvisible) {
      return Status::NotFound("record not visible");
    }
    if (v == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
      spec.txn->commit_dependencies().push_back(raw);
    }
  }

  // 2. Walk the lineage chain from the Indirection column. Columns
  // whose base Schema Encoding bit is clear were never updated, so
  // their value lives in base pages for every snapshot — serve them
  // without touching the chain (the 0/2-hop property of Section 2.2).
  // The head and the ever-updated mask come from one load of the word.
  const SlotMeta* meta = meta_.load(std::memory_order_acquire);
  const uint64_t word =
      meta == nullptr ? 0 : meta->word[slot].load(std::memory_order_acquire);
  uint32_t seq = IndirSeq(word);
  const ColumnMask ever = meta == nullptr ? 0 : meta->Ever(slot, word);
  ColumnMask remaining = needed & ever;
  ColumnMask base_resident = needed & ~ever;
  bool first_found = false;
  const bool latest_mode = spec.as_of == kMaxTimestamp;

  // Fast path (0-hop): every requested column is covered by merged
  // base segments at or beyond the chain head.
  if (latest_mode && seq != 0) {
    auto covers = [&](uint32_t pc) {
      const BaseSegment* seg = segment(pc);
      return seg != nullptr && slot < seg->num_slots && seg->tps >= seq;
    };
    bool covered = covers(ncols + kBaseSchemaEnc);
    for (BitIter it(needed); covered && it; ++it) {
      covered = covers(static_cast<uint32_t>(*it));
    }
    if (covered) {
      if (IsDeleteRecord(BaseMeta(slot, kBaseSchemaEnc))) {
        return Status::NotFound("deleted");
      }
      for (BitIter it(needed); it; ++it) {
        (*out)[*it] = BaseValue(slot, static_cast<uint32_t>(*it));
      }
      if (observed_seq != nullptr) *observed_seq = seq;
      return Status::OK();
    }
  }

  while (seq != 0 && (remaining != 0 || !first_found)) {
    if (seq < historic_boundary_.load(std::memory_order_acquire)) {
      // Continue inside the historic store (Section 4.3).
      HistoricStore* hist = historic_.load(std::memory_order_acquire);
      if (hist != nullptr) {
        ctx_->obs->tail_chain_hops->Increment();
        auto versions = hist->VersionsOf(slot);
        for (auto* v = HistoricStore::Newest(versions, seq, spec.as_of);
             v != nullptr && (remaining != 0 || !first_found);
             v = HistoricStore::Newest(versions, v->seq - 1, spec.as_of)) {
          if (!first_found) {
            first_found = true;
            if (observed_seq != nullptr) *observed_seq = v->seq;
            if (IsDeleteRecord(v->schema_encoding)) {
              return Status::NotFound("deleted");
            }
          }
          int vi = 0;
          for (BitIter b(v->mask); b; ++b, ++vi) {
            if (remaining & (1ull << *b)) (*out)[*b] = v->values[vi];
          }
          remaining &= ~v->mask;
        }
      }
      break;  // chain fully consumed (older than historic = base)
    }

    std::atomic<Value>* sref = updates_.StartTimeSlot(seq);
    Value raw = sref->load(std::memory_order_acquire);
    Visibility vis = tm->Visible(sref, &raw, spec.as_of, spec.txn,
                                 spec.speculative);
    uint32_t back = TailLinkBack(updates_.Read(seq, kTailLink));
    if (vis == Visibility::kInvisible) {
      seq = back;
      continue;
    }
    if (vis == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
      spec.txn->commit_dependencies().push_back(raw);
    }
    Value enc = updates_.Read(seq, kTailSchemaEncoding);
    if (IsSupersededRecord(enc)) {
      seq = back;  // intermediate same-txn version: implicitly invalid
      continue;
    }
    ctx_->obs->tail_chain_hops->Increment();
    if (!first_found) {
      first_found = true;
      if (observed_seq != nullptr) *observed_seq = seq;
      if (IsDeleteRecord(enc)) return Status::NotFound("deleted");
    }
    ColumnMask take = SchemaColumns(enc) & remaining;
    for (BitIter it(take); it; ++it) {
      (*out)[*it] =
          updates_.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it));
    }
    remaining &= ~take;

    // Per-column TPS cut-off (latest reads only): once every remaining
    // column's base segment already consolidates the rest of the
    // chain, stop walking (Section 4.2).
    if (latest_mode && remaining != 0 && back != 0) {
      for (BitIter it(remaining); it; ++it) {
        const BaseSegment* seg = segment(static_cast<uint32_t>(*it));
        if (seg != nullptr && slot < seg->num_slots && seg->tps >= back) {
          (*out)[*it] = BaseValue(slot, static_cast<uint32_t>(*it));
          remaining &= ~(1ull << *it);
        }
      }
    }
    seq = back;
  }

  if (!first_found && observed_seq != nullptr) *observed_seq = 0;

  // 3. Remaining columns found no visible chain version: their value
  // lives in base pages. For snapshot reads, serving them from a data
  // segment is only sound when the record's merged horizon (the Last
  // Updated Time of a segment generation at or beyond the data
  // segment's lineage) lies below the snapshot — a newer merged state
  // with an unmatched chain walk is exactly the inconsistent read of
  // Lemma 3, so flag a retry (Theorem 2). Every value must come from
  // the segment object the guard inspected or from the write-once
  // table-level tail pages: this routine can be preempted arbitrarily
  // long between its loads (the word and based samples may
  // predate a record's first update while a later segment load sees
  // many merges beyond the snapshot), so re-loading pointers or
  // trusting earlier samples would serve too-new values.
  //
  // The guard applies only to columns this slot has ever updated, from
  // a fresh load of its word *after* the segment loads: a merge
  // publishes a segment (release) only after it saw the consolidated
  // update committed, and the updater set the slot's ever-updated bit
  // before its commit. So a
  // bit still clear after the acquire loads of the segments means no
  // loaded segment holds an update of that column for this slot; its
  // value is the insert's in every generation, whatever the Last
  // Updated Time says (a record updated and merged after the snapshot
  // would otherwise fail the guard on every attempt).
  ColumnMask fallback = remaining | base_resident;
  if (fallback == 0) return Status::OK();
  const BaseSegment* lut_seg = segment(ncols + kBaseLastUpdated);
  const BaseSegment* segs[64];  // one per ColumnMask bit
  for (BitIter it(fallback); it; ++it) {
    segs[*it] = segment(static_cast<uint32_t>(*it));
  }
  const SlotMeta* meta_now = meta_.load(std::memory_order_acquire);
  ColumnMask guarded =
      spec.as_of == kMaxTimestamp || meta_now == nullptr
          ? 0
          : fallback &
                meta_now->Ever(slot, meta_now->word[slot].load(
                                         std::memory_order_acquire));
  const bool lut_covers = lut_seg != nullptr && slot < lut_seg->num_slots;
  if (guarded != 0 && lut_covers) {
    Value lut = lut_seg->Get(slot);
    if (lut != kNull && (IsTxnId(lut) || lut >= spec.as_of)) {
      *consistent = false;
    }
  }
  for (BitIter it(fallback); it; ++it) {
    uint32_t col = static_cast<uint32_t>(*it);
    const BaseSegment* seg = segs[col];
    bool seg_covers = seg != nullptr && slot < seg->num_slots;
    if ((guarded & (1ull << col)) != 0 && seg_covers &&
        (!lut_covers || seg->tps > lut_seg->tps)) {
      *consistent = false;
    }
    (*out)[*it] = seg_covers
                      ? seg->Get(slot)
                      : inserts_.Read(slot + 1, kTailMetaColumns + col);
  }
  return Status::OK();
}

Range::MergedView::MergedView(const Range& r, ColumnMask needed)
    : data_(r.ctx_->num_columns) {
  if (const SlotMeta* meta = r.meta_.load(std::memory_order_acquire)) {
    word_ = meta->word.get();
  }
  const uint32_t ncols = r.ctx_->num_columns;
  const BaseSegment* lut = r.segment(ncols + kBaseLastUpdated);
  const BaseSegment* enc = r.segment(ncols + kBaseSchemaEnc);
  const BaseSegment* start = r.segment(ncols + kBaseStartTime);
  if (lut == nullptr || enc == nullptr || start == nullptr ||
      lut->tps != enc->tps) {
    return;
  }
  uint32_t slots = std::min({lut->num_slots, enc->num_slots, start->num_slots});
  auto pin = [this](const BaseSegment* seg) {
    pins_.push_back(seg->Pin());
    return pins_.back().cursor();
  };
  for (BitIter it(needed); it; ++it) {
    const BaseSegment* seg = r.segment(static_cast<uint32_t>(*it));
    if (seg == nullptr || seg->tps != enc->tps) return;
    data_[*it] = pin(seg);
    slots = std::min(slots, seg->num_slots);
  }
  lut_ = pin(lut);
  enc_ = pin(enc);
  start_ = pin(start);
  tps_ = enc->tps;
  slots_ = slots;
}

// ---------------------------------------------------------------------------
// Tail records
// ---------------------------------------------------------------------------

TailRecord Range::ReadRecord(TailKind kind, uint32_t seq, bool settle) {
  TailSegment& seg = Tail(kind);
  TailRecord rec;
  rec.seq = seq;
  if (settle) {
    std::atomic<Value>* sref = seg.StartTimeSlot(seq);
    rec.start = sref->load(std::memory_order_acquire);
    // A pre-committing writer's commit record may already precede a
    // checkpoint's watermark: wait out the validation window instead
    // of guessing.
    TransactionManager* tm = ctx_->txn_manager;
    while (tm->Resolve(sref, &rec.start).outcome == Outcome::kPreCommit) {
      tm->AwaitOutcome(rec.start);
    }
  } else {
    rec.start = seg.Read(seq, kTailStartTime);
  }
  const Value link = seg.Read(seq, kTailLink);
  rec.backptr = TailLinkBack(link);
  rec.base_slot = TailLinkSlot(link);
  rec.encoding = seg.Read(seq, kTailSchemaEncoding);
  rec.cols = kind == TailKind::kInsert ? ctx_->all_columns
                                       : SchemaColumns(rec.encoding);
  int i = 0;
  for (BitIter it(rec.cols); it; ++it) {
    rec.values[i++] =
        seg.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it));
  }
  return rec;
}

void Range::WriteRecord(TailKind kind, const TailRecord& rec) {
  TailSegment& seg = Tail(kind);
  const auto seq = static_cast<uint32_t>(rec.seq);
  int i = 0;
  for (BitIter it(rec.cols); it; ++it) {
    seg.Write(seq, kTailMetaColumns + static_cast<uint32_t>(*it),
              rec.values[i++]);
  }
  seg.Write(seq, kTailLink,
            TailLink(static_cast<uint32_t>(rec.backptr),
                     static_cast<uint32_t>(rec.base_slot)));
  seg.Write(seq, kTailSchemaEncoding, rec.encoding);
  seg.StartTimeSlot(seq)->store(rec.start, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Writes (Section 3)
// ---------------------------------------------------------------------------

void Range::FillInserts(uint32_t slot0, const std::vector<Value>* rows,
                        size_t count, size_t filled, TxnId txn) {
  // Aligned base/tail RIDs: slot s is record s + 1. Each column's page
  // is resolved once per page run, and each row is read once, across
  // its columns (the rows are separate allocations).
  const uint32_t ncols = ctx_->num_columns;
  InlineBuffer<Page*, 64> data(ncols);
  for (size_t j = 0; j < count;) {
    const uint32_t slot = slot0 + static_cast<uint32_t>(j);
    const uint32_t at = inserts_.SlotInPage(slot + 1);
    const size_t len = std::min<size_t>(count - j, inserts_.page_slots() - at);
    const size_t fill = j < filled ? std::min(len, filled - j) : 0;
    for (uint32_t c = 0; c < ncols; ++c) {
      data[c] = inserts_.EnsurePageOf(slot + 1, kTailMetaColumns + c);
    }
    Page* link = inserts_.EnsurePageOf(slot + 1, kTailLink);
    Page* encoding = inserts_.EnsurePageOf(slot + 1, kTailSchemaEncoding);
    Page* start = inserts_.EnsurePageOf(slot + 1, kTailStartTime);
    for (size_t k = 0; k < fill; ++k) {
      const Value* row = rows[j + k].data();
      const auto i = static_cast<uint32_t>(at + k);
      for (uint32_t c = 0; c < ncols; ++c) data[c]->Set(i, row[c]);
      link->Set(i, TailLink(0, slot + static_cast<uint32_t>(k)));
      encoding->Set(i, 0);
      start->Set(i, txn);  // publishes the record (release)
    }
    for (size_t k = fill; k < len; ++k) start->Set(at + k, kAbortedStamp);
    j += len;
  }
  AtomicMax(occupied_, slot0 + static_cast<uint32_t>(count));
}

Status Range::AppendVersion(Transaction* txn, uint32_t slot, ColumnMask mask,
                            const std::vector<Value>& row, bool is_delete,
                            TailVersion* v) {
  SlotMeta* meta = EnsureMeta();
  auto& ind = meta->word[slot];

  // Step 1 of write-write conflict detection: CAS the latch bit
  // (Section 5.1.1). A set latch bit means a concurrent writer.
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if (IndirLatched(iv)) {
      ctx_->obs->ww_conflicts->Increment();
      return Status::Aborted("write-write conflict (latch)");
    }
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  // Every refusal below releases the latch unchanged.
  auto refuse = [&](Status s) {
    ind.store(iv, std::memory_order_release);
    return s;
  };
  const uint32_t prev_seq = IndirSeq(iv);

  // Step 2: inspect the start time of the latest version. A chain
  // head below the historic boundary was compressed away: only
  // records with RESOLVED outcomes (stamped commit time or aborted
  // tombstone — the merge prefix scan guarantees it) are ever moved,
  // so such a head cannot belong to an in-flight writer — and the
  // tail page that held it may already be reclaimed, so it must not
  // be read. (The caller's epoch pin keeps every page at or above a
  // boundary loaded under it alive: a compression retires pages only
  // after publishing the boundary that excludes them.)
  const uint32_t boundary = historic_boundary_.load(std::memory_order_acquire);
  Value latest_raw;
  if (prev_seq != 0) {
    latest_raw = prev_seq >= boundary ? updates_.Read(prev_seq, kTailStartTime)
                                      : Value{1};  // historic ⇒ committed
  } else {
    latest_raw = BaseMeta(slot, kBaseStartTime);
  }
  if (ctx_->txn_manager->InFlightWriter(latest_raw, txn)) {
    ctx_->obs->ww_conflicts->Increment();
    return refuse(
        Status::Aborted("write-write conflict (uncommitted version)"));
  }

  // Reject updates of deleted records: find the newest non-aborted
  // version and check its delete flag.
  uint32_t s = prev_seq;
  while (s != 0 && s >= boundary &&
         IsAbortedStamp(updates_.Read(s, kTailStartTime))) {
    s = TailLinkBack(updates_.Read(s, kTailLink));
  }
  bool deleted = false;
  if (s != 0 && s >= boundary) {
    deleted = IsDeleteRecord(updates_.Read(s, kTailSchemaEncoding));
  } else if (s != 0) {
    if (HistoricStore* hist = historic_.load(std::memory_order_acquire)) {
      auto versions = hist->VersionsOf(slot);
      auto* newest = HistoricStore::Newest(versions, s, kMaxTimestamp);
      deleted = newest != nullptr && IsDeleteRecord(newest->schema_encoding);
    }
  } else if (slot < based_.load(std::memory_order_acquire)) {
    deleted = IsDeleteRecord(BaseMeta(slot, kBaseSchemaEnc)) && prev_seq == 0;
  } else {
    deleted = IsAbortedStamp(inserts_.Read(slot + 1, kTailStartTime));
  }
  if (deleted) return refuse(Status::NotFound("record deleted"));

  // A pre-image snapshot precedes the first update of a column
  // (Section 3.1 / Lemma 2). Both seqs are reserved before either
  // record is written, so a refused reservation publishes nothing.
  const ColumnMask newly = mask & ~meta->Ever(slot, iv);
  v->snap_seq = newly != 0 ? updates_.ReserveSeq() : 0;
  v->seq = v->snap_seq <= kMaxTailSeq ? updates_.ReserveSeq() : 0;
  if (v->seq == 0 || v->seq > kMaxTailSeq) {
    return refuse(Status::Busy("tail sequence space exhausted for range"));
  }

  // Cumulative updates (Section 3.1), reset at the TPS high-water mark
  // (Section 4.2, Table 5).
  ColumnMask carry = 0;
  if (ctx_->config->cumulative_updates && prev_seq != 0 && !is_delete &&
      prev_seq > merged_tps() && prev_seq >= boundary) {
    Value prev_raw = updates_.Read(prev_seq, kTailStartTime);
    Value prev_enc = updates_.Read(prev_seq, kTailSchemaEncoding);
    // Carry only from versions with a known-good outcome: a stamped
    // commit time or our own (an unstamped foreign txn id may belong
    // to an aborted transaction whose tombstone is still in flight).
    bool prev_trusted = !IsAbortedStamp(prev_raw) &&
                        (!IsTxnId(prev_raw) || prev_raw == txn->id());
    if (prev_trusted && !IsSnapshotRecord(prev_enc) &&
        !IsDeleteRecord(prev_enc)) {
      carry = SchemaColumns(prev_enc) & ~mask;
    }
  }

  // Start times are published by the writer BEFORE the caller's log
  // append; the new version carries our txn id until the outcome is
  // stamped. The order is a durability protocol invariant: a
  // checkpoint takes its log watermark and then captures memory, so
  // any record whose log append lies at or below the watermark must
  // already be published — records still unpublished at capture are
  // guaranteed to replay from the retained log tail.
  TailRecord rec;
  rec.backptr = prev_seq;
  rec.base_slot = slot;
  if (v->snap_seq != 0) {
    // The snapshot captures the original values so outdated base
    // pages can be discarded after merges without information loss,
    // and inherits the old version's start time (Table 2: t1 carries
    // b2's 13:04).
    v->snap_start = BaseMeta(slot, kBaseStartTime);
    rec.seq = v->snap_seq;
    rec.encoding = newly | kSnapshotFlag;
    rec.start = v->snap_start;
    rec.cols = newly;
    int i = 0;
    for (BitIter it(newly); it; ++it) {
      rec.values[i++] = BaseValue(slot, static_cast<uint32_t>(*it));
    }
    WriteRecord(TailKind::kUpdate, rec);
    rec.backptr = v->snap_seq;
  }

  // Same-transaction stacking: if the new record covers every column
  // of the previous own record, the old one is superseded and readers
  // skip it even post-commit (Section 3.1). Written under the latch;
  // the record is still invisible to others (our txn is uncommitted).
  if (prev_seq != 0 && latest_raw == txn->id()) {
    Value prev_enc = updates_.Read(prev_seq, kTailSchemaEncoding);
    ColumnMask prev_cols = SchemaColumns(prev_enc);
    if (!IsSnapshotRecord(prev_enc) &&
        ((mask | carry) & prev_cols) == prev_cols) {
      updates_.Write(prev_seq, kTailSchemaEncoding, prev_enc | kSupersededFlag);
    }
  }

  // The new version's columns go straight to its pages, the carried
  // ones first (gathering them into `rec` first slowed update
  // transactions measurably); WriteRecord adds the metadata and the
  // start time.
  for (BitIter it(carry); it; ++it) {
    const uint32_t col = kTailMetaColumns + static_cast<uint32_t>(*it);
    updates_.Write(v->seq, col, updates_.Read(prev_seq, col));
  }
  for (BitIter it(is_delete ? 0 : mask); it; ++it) {
    updates_.Write(v->seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                   row[*it]);
  }
  rec.seq = v->seq;
  rec.encoding = mask | carry | (is_delete ? kDeleteFlag : 0);
  rec.start = txn->id();
  rec.cols = 0;
  WriteRecord(TailKind::kUpdate, rec);
  return Status::OK();
}

void Range::PublishVersion(uint32_t slot, uint32_t seq, ColumnMask mask) {
  meta_.load(std::memory_order_acquire)->Publish(slot, seq, mask);
}

bool Range::Stamp(const WriteEntry& w, TxnId txn, Value outcome) {
  // An insert-merged insert already carries its outcome in the base
  // segment's Start Time column, and the table-level tail page may be
  // reclaimed; a compressed update resolved its outcome before moving.
  // The rest of the entry is stamped a tail page at a time.
  TailSegment& tail = Tail(w.is_insert ? TailKind::kInsert : TailKind::kUpdate);
  const uint32_t end = w.seq + w.count;
  uint32_t seq = std::max(
      w.seq, w.is_insert ? based_.load(std::memory_order_acquire) + 1
                         : historic_boundary_.load(std::memory_order_acquire));
  if (seq >= end) return false;
  for (uint32_t len = 0; seq < end; seq += len) {
    std::atomic<Value>* slots =
        &tail.EnsurePageOf(seq, kTailStartTime)->AtomicSlot(0);
    const uint32_t at = tail.SlotInPage(seq);
    len = std::min(end - seq, tail.page_slots() - at);
    // A load and a store, not a CAS: the one other writer of a slot
    // that holds `txn` is TransactionManager::ResolveTxnId, and it
    // writes the same outcome (an abort stamps before the manager
    // learns it, so no reader writes then; a commit stamps after, so a
    // reader writes the same commit time). A slot holding anything
    // else (a burned slot's aborted stamp) is left alone.
    for (uint32_t k = at; k < at + len; ++k) {
      if (slots[k].load(std::memory_order_relaxed) == txn) {
        slots[k].store(outcome, std::memory_order_release);
      }
    }
  }
  return true;
}

bool Range::TakeMergeTrigger() {
  const TableConfig& cfg = *ctx_->config;
  const uint32_t occupied = this->occupied();
  const uint32_t unmerged = updates_.LastSeq() - merged_tps();
  const uint32_t unbased = occupied - based_.load(std::memory_order_acquire);
  const bool full = occupied >= cfg.range_size;
  if (unmerged < cfg.merge_threshold &&
      unbased < std::min(cfg.range_size, cfg.merge_threshold) &&
      !(full && unbased > 0)) {
    return false;
  }
  bool expected = false;
  return queued_.compare_exchange_strong(expected, true);
}

// ---------------------------------------------------------------------------
// Insert merge (Section 3.2): table-level tail pages -> base segments
// ---------------------------------------------------------------------------

bool Range::InsertMerge() {
  // Timed manually (not a Stage scope) so the no-op early returns do
  // not dilute the duration histogram with empty calls.
  const uint64_t merge_t0 = Stage::Now();
  SpinGuard g(merge_latch_);
  // Pin the epoch: the pages of the segments we read from may be
  // evicted concurrently (buffer pool), and the handle contract
  // requires a guard for the retired-payload backstop.
  EpochGuard eguard(*ctx_->epochs);
  const uint32_t occ = occupied();
  const uint32_t based = based_.load(std::memory_order_acquire);

  // Decided prefix of the insert range: stop at the first insert that
  // is unpublished (an unallocated page reads ∅) or whose transaction
  // is still in flight. Each tail page is resolved once.
  uint32_t new_based = based;
  for (Page* start = nullptr; new_based < occ; ++new_based) {
    const uint32_t at = inserts_.SlotInPage(new_based + 1);
    if (at == 0 || new_based == based) {
      start = inserts_.PageOf(new_based + 1, kTailStartTime);
    }
    if (start == nullptr) break;
    std::atomic<Value>* sref = &start->AtomicSlot(at);
    Value raw = sref->load(std::memory_order_acquire);
    if (!ctx_->txn_manager->Resolve(sref, &raw).decided()) break;
  }
  if (new_based == based) return false;

  const uint32_t ncols = ctx_->num_columns;
  const uint32_t tps = merged_tps();
  std::vector<BaseSegment*> fresh(ncols + kBaseMetaColumns);
  for (uint32_t pc = 0; pc < fresh.size(); ++pc) {
    const BaseSegment* old = segment(pc);
    std::vector<Value> vals = CopySegment(old, new_based);
    uint32_t slot = old != nullptr ? std::min(old->num_slots, new_based) : 0;
    while (slot < new_based) {
      const uint32_t seq = slot + 1;
      const Page* start = inserts_.PageOf(seq, kTailStartTime);
      const Page* data =
          pc < ncols ? inserts_.PageOf(seq, kTailMetaColumns + pc) : nullptr;
      const uint32_t at0 = inserts_.SlotInPage(seq);
      const uint32_t end = at0 + std::min(new_based - slot,
                                          inserts_.page_slots() - at0);
      for (uint32_t at = at0; at < end; ++at, ++slot) {
        const Value raw = start != nullptr ? start->Get(at) : kNull;
        const bool aborted = IsAbortedStamp(raw) || raw == kNull;
        if (pc < ncols) {
          vals[slot] = aborted || data == nullptr ? kNull : data->Get(at);
        } else if (pc - ncols == kBaseSchemaEnc) {
          vals[slot] = aborted ? kDeleteFlag : 0;
        } else {  // Start Time and Last Updated Time
          vals[slot] = aborted ? kNull : raw;
        }
      }
    }
    fresh[pc] = NewSegment(*ctx_, tps, std::move(vals));
  }

  // Step 4/5: swap the page directory entries and retire the old
  // segments via the epoch manager (Figure 6).
  for (uint32_t pc = 0; pc < fresh.size(); ++pc) InstallSegment(pc, fresh[pc]);
  based_.store(new_based, std::memory_order_release);

  // Table-level tail pages of the merged prefix can be discarded once
  // current readers drain (Section 4.1.1, "Merging Table-level
  // Tail-pages").
  ctx_->epochs->Retire([this, keep_from = new_based + 1] {
    inserts_.DropRecordsBelow(keep_from);
  });

  const TableCounters& obs = *ctx_->obs;
  obs.insert_merges->Increment();
  obs.insert_rows_merged->Add(new_based - based);
  Stage::Record(obs.merge_insert_ns, nullptr, 0, merge_t0,
                Stage::Now() - merge_t0);
  return true;
}

// ---------------------------------------------------------------------------
// Update merge (Algorithm 1)
// ---------------------------------------------------------------------------

namespace {

/// Per-slot consolidation state used by the reverse scan (Step 3).
struct SlotMergeState {
  ColumnMask seen = 0;      ///< columns whose newest value was captured
  bool deleted = false;
  bool lut_set = false;
  Value lut = 0;
  ColumnMask applied = 0;   ///< columns applied (for schema encoding)
  std::unordered_map<uint32_t, Value> values;
};

}  // namespace

bool Range::UpdateMerge(ColumnMask data_cols, bool all_columns) {
  // Timed manually — early returns (nothing to merge) are not samples.
  const uint64_t merge_t0 = Stage::Now();
  SpinGuard g(merge_latch_);
  // Pin the epoch for the whole consolidation: page handles over the
  // old segments require it (see InsertMerge).
  EpochGuard eguard(*ctx_->epochs);
  const uint32_t based = based_.load(std::memory_order_acquire);
  const uint32_t ncols = ctx_->num_columns;
  if (based == 0 || segment(ncols + kBaseSchemaEnc) == nullptr) {
    return false;  // nothing insert-merged yet
  }
  const uint32_t old_tps = merged_tps();
  const uint32_t last = updates_.LastSeq();
  if (last <= old_tps) return false;

  // Step 1: identify the consecutive committed prefix of tail records
  // beyond the current TPS ("always operating on stable data").
  uint32_t new_tps = old_tps;
  for (uint32_t seq = old_tps + 1; seq <= last; ++seq) {
    std::atomic<Value>* sref = updates_.StartTimeSlot(seq);
    Value raw = sref->load(std::memory_order_acquire);
    Resolution res = ctx_->txn_manager->Resolve(sref, &raw);
    if (!res.decided()) break;  // unpublished, active or pre-commit
    // Strengthened stability (Section 4.1.1): records whose base slot
    // is not insert-merged yet end the prefix. A tombstone is processed
    // but not applied.
    if (res.outcome != Outcome::kAborted &&
        TailLinkSlot(updates_.Read(seq, kTailLink)) >= based) {
      break;
    }
    new_tps = seq;
  }
  if (new_tps == old_tps) return false;

  // Step 3: reverse scan with a seen-set — only the newest version of
  // each (record, column) is consolidated; earlier ones are skipped.
  std::unordered_map<uint32_t, SlotMergeState> latest;
  ColumnMask touched = 0;
  for (uint32_t seq = new_tps; seq > old_tps; --seq) {
    Value raw = updates_.Read(seq, kTailStartTime);
    if (IsAbortedStamp(raw) || raw == kNull) continue;
    uint32_t slot = TailLinkSlot(updates_.Read(seq, kTailLink));
    Value enc = updates_.Read(seq, kTailSchemaEncoding);
    if (IsSupersededRecord(enc)) continue;  // implicitly invalidated
    SlotMergeState& st = latest[slot];
    if (st.deleted) continue;  // a newer delete shadows everything
    if (IsDeleteRecord(enc) && st.seen == 0) {
      st.deleted = true;
      st.lut = raw;
      st.lut_set = true;
      continue;
    }
    ColumnMask take = SchemaColumns(enc) & data_cols & ~st.seen;
    if (take != 0) {
      for (BitIter it(take); it; ++it) {
        st.values[static_cast<uint32_t>(*it)] =
            updates_.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it));
      }
      st.seen |= take;
      st.applied |= take;
      touched |= take;
      if (!st.lut_set) {
        st.lut = raw;  // newest contributing record's start time
        st.lut_set = true;
      }
    }
  }

  // Step 3 (cont.): consolidate into fresh segments. The Start Time
  // column is preserved verbatim (Section 4.1.1: "the old Start Time
  // column remains intact") and untouched data columns share their
  // pages — including residency and the swap location, so a shared
  // page is not re-written to the store; both only advance their
  // lineage.
  std::vector<BaseSegment*> fresh(ncols + kBaseMetaColumns);
  for (uint32_t pc = 0; pc < fresh.size(); ++pc) {
    const BaseSegment* old = segment(pc);
    const bool is_data = pc < ncols;
    const bool rebuilt =
        is_data ? (touched >> pc & 1) != 0 : pc - ncols != kBaseStartTime;
    // Lineage: per-column merge only advances the merged columns'
    // TPS — the mixed-TPS state is what Lemma 3 detects and repairs.
    const uint32_t tps =
        all_columns || rebuilt || !is_data ? new_tps : old->tps;
    if (!rebuilt) {
      fresh[pc] = new BaseSegment{tps, old->num_slots, old->page};
      continue;
    }
    std::vector<Value> vals = CopySegment(old, old->num_slots);
    for (auto& [slot, st] : latest) {
      if (slot >= old->num_slots) continue;
      if (is_data) {
        auto it = st.values.find(pc);
        if (it != st.values.end()) vals[slot] = it->second;
        if (st.deleted) vals[slot] = kNull;
      } else if (pc - ncols == kBaseLastUpdated) {
        Value prev = vals[slot];
        if (st.lut_set && (prev == kNull || IsTxnId(prev) || st.lut > prev)) {
          vals[slot] = st.lut;
        }
      } else {  // kBaseSchemaEnc
        vals[slot] |= st.applied | (st.deleted ? kDeleteFlag : 0);
      }
    }
    fresh[pc] = NewSegment(*ctx_, tps, std::move(vals));
  }

  // Step 4: update the page directory — the only foreground action;
  // step 5: epoch-based de-allocation (Figure 6).
  for (uint32_t pc = 0; pc < fresh.size(); ++pc) InstallSegment(pc, fresh[pc]);
  if (all_columns) {
    merged_tps_.store(new_tps, std::memory_order_release);
  } else {
    // Partial merges do not advance the range-level cumulation
    // watermark beyond the minimum column TPS.
    uint32_t min_tps = new_tps;
    for (ColumnId c = 0; c < ncols; ++c) {
      min_tps = std::min(min_tps, segment(c)->tps);
    }
    AtomicMax(merged_tps_, min_tps);
  }

  const TableCounters& obs = *ctx_->obs;
  obs.update_merges->Increment();
  obs.merge_rows->Add(new_tps - old_tps);
  Stage::Record(obs.merge_update_ns, nullptr, 0, merge_t0,
                Stage::Now() - merge_t0);
  return true;
}

// ---------------------------------------------------------------------------
// Historic compression (Section 4.3)
// ---------------------------------------------------------------------------

size_t Range::CompressHistoric() {
  // Timed manually — early returns (nothing to compress) are not
  // samples in the duration histogram.
  const uint64_t compress_t0 = Stage::Now();
  SpinGuard g(merge_latch_);
  // Everything merged moves. Tail pages are reclaimed through the epoch
  // manager, so readers that started earlier keep theirs, and the
  // versions are moved, not lost.
  const uint32_t old_boundary =
      historic_boundary_.load(std::memory_order_acquire);
  const uint32_t new_boundary = merged_tps() + 1;
  if (new_boundary <= old_boundary) return 0;

  // Collect versions [old_boundary, new_boundary).
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> per_slot;
  size_t moved = 0;
  for (uint32_t seq = old_boundary; seq < new_boundary; ++seq) {
    TailRecord rec = ReadRecord(TailKind::kUpdate, seq);
    if (rec.start == kNull || IsAbortedStamp(rec.start) || IsTxnId(rec.start)) {
      continue;  // tombstones are reclaimed here (Section 5.1.3)
    }
    per_slot[rec.base_slot].push_back(HistoricStore::Version{
        seq, rec.start, rec.encoding, rec.cols,
        std::vector<Value>(rec.values, rec.values + PopCount(rec.cols))});
    ++moved;
  }

  HistoricStore* old_store = historic_.load(std::memory_order_acquire);
  HistoricStore* fresh = HistoricStore::Build(new_boundary - 1, per_slot,
                                              old_store, ctx_->num_columns);

  // Publish: store first, then the boundary, then reclaim the raw
  // tail pages once readers drain (page-directory pointer swap
  // analogue; Section 4.3 "the page directory is updated by swapping
  // the pointers").
  historic_.store(fresh, std::memory_order_release);
  historic_boundary_.store(new_boundary, std::memory_order_release);
  ctx_->epochs->Retire([this, new_boundary, old_store] {
    updates_.DropRecordsBelow(new_boundary);
    delete old_store;
  });

  const TableCounters& obs = *ctx_->obs;
  obs.historic_compressions->Increment();
  obs.historic_versions->Add(moved);
  Stage::Record(obs.merge_historic_ns, nullptr, 0, compress_t0,
                Stage::Now() - compress_t0);
  return moved;
}

// ---------------------------------------------------------------------------
// Durability (Section 5.1.3)
// ---------------------------------------------------------------------------

RangeState Range::State() const {
  // Seqs past kMaxTailSeq are reserved by refused writes only, never
  // written.
  return RangeState{occupied(), based_.load(std::memory_order_acquire),
                    merged_tps(),
                    historic_boundary_.load(std::memory_order_acquire),
                    std::min(updates_.LastSeq(), kMaxTailSeq)};
}

Status Range::RestoreState(const RangeState& s) {
  const uint32_t range_size = ctx_->config->range_size;
  if (s.occupied > range_size || s.based > range_size) {
    return Status::Corruption("range state slot past range_size");
  }
  // A live range has tps <= last <= kMaxTailSeq, and its boundary is at
  // most one past a TPS it reached.
  if (s.last > kMaxTailSeq || s.tps > s.last || s.boundary > s.tps + 1) {
    return Status::Corruption("range state tail seq out of range");
  }
  occupied_.store(static_cast<uint32_t>(s.occupied), std::memory_order_release);
  based_.store(static_cast<uint32_t>(s.based), std::memory_order_release);
  merged_tps_.store(static_cast<uint32_t>(s.tps), std::memory_order_release);
  historic_boundary_.store(std::max(static_cast<uint32_t>(s.boundary), 1u),
                           std::memory_order_release);
  updates_.AdvanceSeq(static_cast<uint32_t>(s.last));
  return Status::OK();
}

void Range::InstallSegment(uint32_t physical_col, BaseSegment* seg) {
  BaseSegment* old =
      base_[physical_col].exchange(seg, std::memory_order_acq_rel);
  if (old == nullptr) return;
  ctx_->obs->segments_retired->Increment();
  ctx_->epochs->Retire([old] { delete old; });
}

void Range::InstallHistoric(HistoricStore* hist) {
  delete historic_.exchange(hist, std::memory_order_acq_rel);
}

Status Range::Apply(TailKind kind, const TailRecord& rec) {
  const bool insert = kind == TailKind::kInsert;
  if (rec.seq == 0 || rec.seq > kMaxTailSeq || rec.backptr >= rec.seq ||
      rec.base_slot >= ctx_->config->range_size ||
      (insert && rec.seq != rec.base_slot + 1) ||
      ((rec.cols | SchemaColumns(rec.encoding)) & ~ctx_->all_columns) != 0) {
    return Status::Corruption("tail record out of range");
  }
  Tail(kind).AdvanceSeq(static_cast<uint32_t>(rec.seq));
  uint32_t& low = applied_low_[static_cast<int>(kind)];
  low = std::min(low, static_cast<uint32_t>(rec.seq));
  if (insert) AtomicMax(occupied_, static_cast<uint32_t>(rec.base_slot) + 1);
  WriteRecord(kind, rec);
  return Status::OK();
}

void Range::Recover(const std::unordered_map<TxnId, Timestamp>& commits,
                    std::vector<Value>* keys, std::vector<Rid>* rids,
                    Timestamp* max_time) {
  const RangeState st = State();
  // Step 3: every replayed record, and every captured record of a
  // transaction still active at capture, carries a raw txn id whose
  // verdict `commits` holds. The captured window [first, last] is
  // settled whole; below it, where the checkpoint had already merged or
  // compressed a record the replay wrote again, only written seqs are.
  auto settle = [&](TailKind kind, uint64_t first, uint64_t last) {
    TailSegment& seg = Tail(kind);
    const uint64_t low = applied_low_[static_cast<int>(kind)];
    for (uint64_t seq = std::min(first, low); seq <= last; ++seq) {
      const Value raw = seg.Read(static_cast<uint32_t>(seq), kTailStartTime);
      if (!IsTxnId(raw) || (seq < first && raw == kNull)) continue;
      auto it = commits.find(raw);
      seg.StartTimeSlot(static_cast<uint32_t>(seq))
          ->store(it != commits.end() ? it->second : kAbortedStamp,
                  std::memory_order_release);
    }
  };
  settle(TailKind::kUpdate, st.boundary, st.last);
  settle(TailKind::kInsert, st.based + 1, st.occupied);

  // Step 4: the live rows' keys, for the primary index. Only the key
  // and Start Time columns are pinned (demand-loading them at most
  // once); every other lazily mapped segment stays cold, so restart
  // cost for based data is O(hot set), not O(table).
  const BaseSegment* start_seg = segment(ctx_->num_columns + kBaseStartTime);
  const BaseSegment* key_seg = segment(0);
  PageHandle start_page =
      start_seg != nullptr ? start_seg->Pin() : PageHandle();
  PageHandle key_page = key_seg != nullptr ? key_seg->Pin() : PageHandle();
  keys->clear();
  rids->clear();
  for (uint32_t slot = 0; slot < st.occupied; ++slot) {
    Value start = slot < st.based && start_seg != nullptr &&
                          slot < start_seg->num_slots
                      ? start_page.Get(slot)
                      : inserts_.Read(slot + 1, kTailStartTime);
    if (start == kNull || IsAbortedStamp(start) || IsTxnId(start)) continue;
    *max_time = std::max(*max_time, start);
    keys->push_back(key_seg != nullptr && slot < key_seg->num_slots
                        ? key_page.Get(slot)
                        : inserts_.Read(slot + 1, kTailMetaColumns));
    rids->push_back(id_ * ctx_->config->range_size + slot);
  }

  // ... and the Indirection column: each version (tail or historic) of
  // a slot raises its chain head and ever-updated mask.
  auto note_version = [this](uint32_t slot, uint32_t seq, ColumnMask cols) {
    SlotMeta* meta = EnsureMeta();
    meta->Publish(slot, std::max(SlotMeta::HeadSeq(meta, slot), seq), cols);
  };
  for (uint32_t seq = st.boundary; seq <= st.last; ++seq) {
    Value raw = updates_.Read(seq, kTailStartTime);
    if (raw == kNull || IsAbortedStamp(raw) || IsTxnId(raw)) continue;
    *max_time = std::max(*max_time, raw);
    note_version(TailLinkSlot(updates_.Read(seq, kTailLink)), seq,
                 SchemaColumns(updates_.Read(seq, kTailSchemaEncoding)));
  }
  if (const HistoricStore* hist = historic()) {
    for (uint32_t slot : hist->Slots()) {
      if (slot >= ctx_->config->range_size) continue;
      for (const HistoricStore::Version& v : hist->VersionsOf(slot)) {
        *max_time = std::max(*max_time, v.start_time);
        note_version(slot, v.seq, SchemaColumns(v.schema_encoding));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<uint32_t> Range::ColumnTps() const {
  std::vector<uint32_t> out;
  for (ColumnId c = 0; c < ctx_->num_columns; ++c) {
    const BaseSegment* seg = segment(c);
    out.push_back(seg == nullptr ? 0 : seg->tps);
  }
  return out;
}

uint64_t Range::ResidentBytes() const {
  uint64_t bytes = 0;
  for (const auto& b : base_) {
    BaseSegment* seg = b.load(std::memory_order_acquire);
    if (seg != nullptr) bytes += seg->page->resident_bytes();
  }
  return bytes;
}

std::vector<Range::ChainEntry> Range::DebugChain(uint32_t slot, ColumnId col) {
  std::vector<ChainEntry> out;
  uint32_t seq = SlotMeta::HeadSeq(meta_.load(std::memory_order_acquire), slot);
  const uint32_t boundary = historic_boundary_.load(std::memory_order_acquire);
  // Stop at the historic boundary: pages below it may be reclaimed
  // (compressed versions live in the historic store instead).
  for (int hops = 0; seq >= boundary && seq != 0 && hops < 1000; ++hops) {
    TailRecord rec = ReadRecord(TailKind::kUpdate, seq);
    out.push_back(ChainEntry{seq, rec.start, rec.encoding, rec.Get(col)});
    seq = static_cast<uint32_t>(rec.backptr);
  }
  return out;
}

}  // namespace lstore
