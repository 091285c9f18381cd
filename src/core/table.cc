#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/bitutil.h"
#include "common/checksum.h"
#include "common/inline_buffer.h"
#include "core/commit_pipeline.h"
#include "core/historic.h"
#include "core/merge.h"
#include "core/query.h"

namespace lstore {

// ---------------------------------------------------------------------------
// Range
// ---------------------------------------------------------------------------

Table::Range::Range(uint64_t range_id, uint32_t range_size, uint32_t num_cols,
                    uint32_t tail_page_slots)
    : id(range_id),
      size(range_size),
      inserts(num_cols, tail_page_slots),
      updates(num_cols, tail_page_slots),
      base(num_cols + kBaseMetaColumns) {
  for (auto& b : base) b.store(nullptr, std::memory_order_relaxed);
}

Table::Range::~Range() {
  for (auto& b : base) delete b.load(std::memory_order_acquire);
  delete historic.load(std::memory_order_acquire);
  delete[] meta.load(std::memory_order_acquire);
}

Table::SlotMeta* Table::Range::EnsureMeta() {
  SlotMeta* m = meta.load(std::memory_order_acquire);
  if (m != nullptr) return m;
  SlotMeta* fresh = new SlotMeta[size]();
  if (meta.compare_exchange_strong(m, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;
  return m;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Table::Table(std::string name, Schema schema, TableConfig config,
             TransactionManager* txn_manager)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      config_(config),
      ranges_((PrimaryIndex::kMaxRid + 1) / config_.range_size) {
  if (txn_manager != nullptr) {
    txn_manager_ = txn_manager;
  } else {
    owned_txn_manager_ = std::make_unique<TransactionManager>();
    txn_manager_ = owned_txn_manager_.get();
  }
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    // Standalone table: own a registry so metrics() is always valid,
    // and mirror the epoch queue depth and resident sizes into it at
    // snapshot time (a database-owned registry gets a database-wide
    // collector instead).
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
    metrics_->AddCollector(
        [this](MetricsRegistry& r) { CollectSizeGauges(r, {this}); });
  }
  obs_.merge_update_ns = metrics_->GetHistogram(
      "lstore_merge_update_ns", "Update-merge duration per range (ns)");
  obs_.merge_insert_ns = metrics_->GetHistogram(
      "lstore_merge_insert_ns", "Insert-merge duration per range (ns)");
  obs_.merge_historic_ns = metrics_->GetHistogram(
      "lstore_merge_historic_ns", "Historic-compression duration (ns)");
  obs_.query_partition_ns = metrics_->GetHistogram(
      "lstore_query_partition_ns", "Query scan partition latency (ns)");
  obs_.merge_rows = metrics_->GetCounter(
      "lstore_merge_rows_consolidated_total",
      "Tail records consolidated by update merges");
  obs_.insert_rows_merged = metrics_->GetCounter(
      "lstore_merge_insert_rows_total",
      "Insert rows turned into base segments");
  obs_.historic_versions = metrics_->GetCounter(
      "lstore_merge_historic_versions_total",
      "Versions moved into the historic store");
  obs_.commit_publish_ns = metrics_->GetHistogram(
      "lstore_commit_publish_ns",
      "Commit publish stage: state flip + write stamping (ns)");
  obs_.commits =
      metrics_->GetCounter("lstore_commits_total", "Pipeline commits");
  obs_.aborts =
      metrics_->GetCounter("lstore_aborts_total", "Pipeline aborts");
  obs_.reads = metrics_->GetCounter(
      "lstore_reads_total", "Point reads of a located record");
  obs_.inserts = metrics_->GetCounter("lstore_inserts_total", "Rows inserted");
  obs_.updates = metrics_->GetCounter("lstore_updates_total",
                                      "Update tail versions written");
  obs_.deletes = metrics_->GetCounter("lstore_deletes_total",
                                      "Delete tail versions written");
  obs_.ww_conflicts = metrics_->GetCounter(
      "lstore_ww_conflicts_total", "Writes aborted by a write-write conflict");
  obs_.validation_aborts = metrics_->GetCounter(
      "lstore_validation_aborts_total", "Commits aborted by read validation");
  obs_.tail_chain_hops = metrics_->GetCounter(
      "lstore_tail_chain_hops_total",
      "Chain hops resolving records (a historic lookup counts one)");
  obs_.segments_retired = metrics_->GetCounter(
      "lstore_segments_retired_total", "Base segments replaced by merges");
  obs_.update_merges = metrics_->GetCounter("lstore_update_merges_total",
                                            "Update merges completed");
  obs_.insert_merges = metrics_->GetCounter("lstore_insert_merges_total",
                                            "Insert merges completed");
  obs_.historic_compressions = metrics_->GetCounter(
      "lstore_historic_compressions_total", "Historic compressions completed");
  if (config_.enable_logging && !config_.log_path.empty()) {
    log_ = std::make_unique<RedoLog>();
    FramedLogMetrics lm;
    lm.appends = metrics_->GetCounter("lstore_redo_appends_total",
                                      "Redo-log record frames appended");
    lm.append_bytes = metrics_->GetCounter("lstore_redo_append_bytes_total",
                                           "Redo-log framed bytes appended");
    lm.fsyncs = metrics_->GetCounter("lstore_redo_fsyncs_total",
                                     "Redo-log commit-path fsyncs");
    lm.append_ns = metrics_->GetHistogram("lstore_redo_append_ns",
                                          "Redo-log append latency (ns)");
    lm.flush_ns = metrics_->GetHistogram("lstore_redo_flush_ns",
                                         "Redo-log flush latency (ns)");
    lm.truncate_read_bytes = metrics_->GetCounter(
        "lstore_redo_truncate_read_bytes_total",
        "Redo-log bytes read back by checkpoint truncation");
    log_->set_metrics(lm);
    Status s = log_->Open(config_.log_path, /*truncate=*/false);
    if (!s.ok()) log_.reset();
  }
  buffer_pool_ = config_.buffer_pool;
  segment_store_ = config_.segment_store;
  if (buffer_pool_ == nullptr && segment_store_ == nullptr) {
    // Memory-capped test knob: force standalone tables through the
    // demand-paging path by spilling to an anonymous temp file.
    // (A store-only wiring — durable reopen without a pool — is left
    // alone: its lazily restored segments reference that store.)
    uint64_t env_budget = BufferPool::EnvBudgetBytes();
    if (env_budget > 0) {
      owned_store_ = std::make_unique<SegmentStore>();
      if (owned_store_->OpenTemp().ok()) {
        owned_pool_ = std::make_unique<BufferPool>(env_budget);
        buffer_pool_ = owned_pool_.get();
        segment_store_ = owned_store_.get();
      } else {
        owned_store_.reset();
      }
    }
  }
  merge_manager_ = std::make_unique<MergeManager>(this);
  if (config_.enable_merge_thread) merge_manager_->Start();
}

Table::~Table() {
  if (merge_manager_) merge_manager_->Stop();
  // Detach this table's pages from the (shared) buffer pool first: a
  // concurrent eviction on behalf of another table must not retire a
  // payload into an epoch manager that is about to be destroyed.
  if (buffer_pool_ != nullptr) buffer_pool_->DetachDomain(&epochs_);
  // Run pending epoch deleters BEFORE tearing down the ranges they
  // reference (retired segments, deferred tail-page drops, evicted
  // payloads). No readers can exist at this point.
  epochs_.DrainAllUnsafe();
  // Free ranges and their published structures.
  ranges_.Teardown();
}

Table::Range* Table::EnsureRange(uint64_t id) {
  return ranges_.Ensure(id, [&] {
    return new Range(id, config_.range_size, schema_.num_columns(),
                     config_.tail_page_slots);
  });
}

uint32_t Table::RangeTps(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->merged_tps.load(std::memory_order_acquire);
}

uint32_t Table::RangeTailLength(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->updates.LastSeq();
}

uint64_t Table::BaseResidentBytes() const {
  uint64_t bytes = 0;
  EpochGuard guard(epochs_);  // merges retire segments through epochs_
  for (uint64_t id = 0; id < num_ranges(); ++id) {
    Range* r = GetRange(id);
    if (r == nullptr) continue;
    for (const auto& b : r->base) {
      BaseSegment* seg = b.load(std::memory_order_acquire);
      if (seg != nullptr) bytes += seg->page->resident_bytes();
    }
  }
  return bytes;
}

uint64_t Table::UpdateMetaBytes() const {
  uint64_t arrays = 0;
  for (uint64_t id = 0; id < num_ranges(); ++id) {
    Range* r = GetRange(id);
    if (r != nullptr && r->meta.load(std::memory_order_acquire) != nullptr) {
      ++arrays;
    }
  }
  return arrays * config_.range_size * sizeof(SlotMeta);
}

void Table::CollectSizeGauges(MetricsRegistry& r,
                              const std::vector<const Table*>& tables) {
  size_t epoch_pending = 0, index_bytes = 0;
  uint64_t base_bytes = 0, update_meta_bytes = 0;
  for (const Table* t : tables) {
    epoch_pending += t->epochs_.pending();
    index_bytes += t->PrimaryIndexBytes();
    base_bytes += t->BaseResidentBytes();
    update_meta_bytes += t->UpdateMetaBytes();
  }
  r.GetGauge("lstore_epoch_pending",
             "Retired-but-unreclaimed epoch entries across tables")
      ->Set(static_cast<int64_t>(epoch_pending));
  r.GetGauge("lstore_primary_index_bytes", "Primary-index bytes across tables")
      ->Set(static_cast<int64_t>(index_bytes));
  r.GetGauge("lstore_base_resident_bytes",
             "Resident base-segment payload bytes across tables")
      ->Set(static_cast<int64_t>(base_bytes));
  r.GetGauge("lstore_update_meta_bytes",
             "Per-slot update metadata bytes of updated ranges across tables")
      ->Set(static_cast<int64_t>(update_meta_bytes));
}

std::vector<uint32_t> Table::RangeColumnTps(uint64_t range_id) const {
  std::vector<uint32_t> out;
  Range* r = GetRange(range_id);
  if (r == nullptr) return out;
  EpochGuard guard(epochs_);
  for (ColumnId c = 0; c < schema_.num_columns(); ++c) {
    BaseSegment* seg = Segment(*r, c);
    out.push_back(seg == nullptr ? 0 : seg->tps);
  }
  return out;
}

std::vector<Table::ChainEntry> Table::DebugChain(Value key,
                                                 ColumnId col) const {
  std::vector<ChainEntry> out;
  Rid rid = primary_.Get(key);
  if (rid == kInvalidRid) return out;
  Range* r = GetRange(RangeOf(rid));
  if (r == nullptr) return out;
  uint32_t slot = SlotOf(rid);
  EpochGuard guard(epochs_);
  uint32_t seq =
      SlotMeta::HeadSeq(r->meta.load(std::memory_order_acquire), slot);
  uint32_t boundary = r->historic_boundary.load(std::memory_order_acquire);
  int hops = 0;
  // Stop at the historic boundary: pages below it may be reclaimed
  // (compressed versions live in the historic store instead).
  while (seq >= boundary && seq != 0 && hops++ < 1000) {
    ChainEntry e;
    e.seq = seq;
    e.raw_start = r->updates.Read(seq, kTailStartTime);
    e.schema_encoding = r->updates.Read(seq, kTailSchemaEncoding);
    e.col_value = r->updates.Read(seq, kTailMetaColumns + col);
    out.push_back(e);
    seq = static_cast<uint32_t>(r->updates.Read(seq, kTailIndirection));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Base record accessors
// ---------------------------------------------------------------------------

Value Table::BaseValue(const Range& r, uint32_t slot,
                       uint32_t physical_col) const {
  BaseSegment* seg = r.base[physical_col].load(std::memory_order_acquire);
  if (seg != nullptr && slot < seg->num_slots) return seg->Get(slot);
  // Not insert-merged yet: the record lives in the table-level tail
  // pages (Section 3.2) at the aligned position slot+1.
  uint32_t seq = slot + 1;
  if (physical_col < schema_.num_columns()) {
    return r.inserts.Read(seq, kTailMetaColumns + physical_col);
  }
  switch (physical_col - schema_.num_columns()) {
    case kBaseStartTime:
      return r.inserts.Read(seq, kTailStartTime);
    case kBaseLastUpdated:
      return r.inserts.Read(seq, kTailStartTime);
    case kBaseSchemaEnc:
      return 0;
  }
  return kNull;
}

Value Table::BaseStartRaw(const Range& r, uint32_t slot) const {
  return BaseMetaValue(r, slot, kBaseStartTime);
}

// ---------------------------------------------------------------------------
// Buffer-managed segment pages
// ---------------------------------------------------------------------------

std::shared_ptr<SegmentPage> Table::MakeSegmentPage(
    std::unique_ptr<CompressedColumn> col) {
  auto page = std::make_shared<SegmentPage>(&epochs_);
  if (segment_store_ != nullptr) {
    // Write the column's serialized form through: once the bytes are
    // in the store the page is evictable, and a durable store lets
    // checkpoints reference the segment instead of rewriting it.
    std::string payload;
    col->AppendTo(&payload);
    uint64_t offset = 0;
    if (segment_store_->Append(payload, &offset).ok()) {
      page->SetSwap(segment_store_, offset, payload.size(),
                    Crc32c(payload.data(), payload.size()), col->header());
    }
    // Append failure (e.g. ENOSPC): the page simply stays resident
    // and unevictable — correctness is unaffected.
  }
  page->SetResident(col.release());
  if (buffer_pool_ != nullptr) buffer_pool_->Register(page.get());
  return page;
}

std::shared_ptr<SegmentPage> Table::MakeColdSegmentPage(
    uint64_t offset, uint64_t length, uint32_t checksum,
    const CompressedColumn::Header& layout) {
  auto page = std::make_shared<SegmentPage>(&epochs_);
  page->SetSwap(segment_store_, offset, length, checksum, layout);
  if (buffer_pool_ != nullptr) buffer_pool_->Register(page.get());
  return page;
}

Status Table::SyncSegmentStore() {
  if (segment_store_ == nullptr || !segment_store_->durable()) {
    return Status::OK();
  }
  return segment_store_->Sync();
}

std::atomic<Value>* Table::BaseStartSlot(Range& r, uint32_t slot) const {
  // Only meaningful while the slot is not insert-merged (the segment's
  // start column is a stamped, stable commit time).
  return r.inserts.StartTimeSlot(slot + 1);
}

// ---------------------------------------------------------------------------
// Record resolution (the 2-hop read path of Section 2.2)
// ---------------------------------------------------------------------------

Status Table::ResolveRecord(Range& r, uint32_t slot, const ReadSpec& spec,
                            ColumnMask needed, std::vector<Value>* out,
                            uint32_t* observed_seq) const {
  Status status = Status::OK();
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool consistent = true;
    status = ResolveRecordOnce(r, slot, spec, needed, out, observed_seq,
                               &consistent);
    if (consistent) return status;
    // Theorem 2: an inconsistent read (detected via the in-page
    // lineage) is repaired by re-resolving against fresh state.
    std::this_thread::yield();
    if (attempt == 6) {
      std::fprintf(stderr,
                   "lstore: ResolveRecord retries exhausted slot=%u as_of=%llu"
                   " tps=%u\n",
                   slot, (unsigned long long)spec.as_of,
                   r.merged_tps.load(std::memory_order_acquire));
    }
  }
  return status;
}

Status Table::ResolveRecordOnce(Range& r, uint32_t slot, const ReadSpec& spec,
                                ColumnMask needed, std::vector<Value>* out,
                                uint32_t* observed_seq,
                                bool* consistent) const {
  constexpr uint32_t kInvisibleSeq = 0xFFFFFFFFu;
  if (observed_seq != nullptr) *observed_seq = kInvisibleSeq;

  // 1. Base record (original insert) visibility.
  {
    uint32_t based = r.based.load(std::memory_order_acquire);
    if (slot < based) {
      Value start = BaseMetaValue(r, slot, kBaseStartTime);
      if (!(start != kNull && start < spec.as_of)) {
        // Insert-merged starts are stable commit times; kNull marks an
        // aborted insert.
        return Status::NotFound("record not visible");
      }
    } else {
      std::atomic<Value>* sref = BaseStartSlot(r, slot);
      Value raw = sref->load(std::memory_order_acquire);
      Visibility v = txn_manager_->Visible(sref, &raw, spec.as_of, spec.txn,
                                           spec.speculative);
      if (v == Visibility::kInvisible) {
        return Status::NotFound("record not visible");
      }
      if (v == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
        spec.txn->commit_dependencies().push_back(raw);
      }
    }
  }

  // 2. Walk the lineage chain from the Indirection column. Columns
  // whose base Schema Encoding bit is clear were never updated, so
  // their value lives in base pages for every snapshot — serve them
  // without touching the chain (the 0/2-hop property of Section 2.2).
  const SlotMeta* meta = r.meta.load(std::memory_order_acquire);
  uint32_t seq = SlotMeta::HeadSeq(meta, slot);
  uint64_t ever = meta == nullptr ? 0
                                  : meta[slot].ever_updated.load(
                                        std::memory_order_acquire);
  ColumnMask remaining = needed & ever;
  ColumnMask base_resident = needed & ~ever;
  bool first_found = false;
  const bool latest_mode = spec.as_of == kMaxTimestamp;

  // Fast path (0-hop): every requested column is covered by merged
  // base segments at or beyond the chain head.
  if (latest_mode && seq != 0) {
    bool covered = true;
    BaseSegment* enc_seg = r.base[schema_.num_columns() + kBaseSchemaEnc]
                               .load(std::memory_order_acquire);
    if (enc_seg == nullptr || slot >= enc_seg->num_slots ||
        enc_seg->tps < seq) {
      covered = false;
    }
    for (BitIter it(needed); covered && it; ++it) {
      BaseSegment* seg = Segment(r, static_cast<uint32_t>(*it));
      if (seg == nullptr || slot >= seg->num_slots || seg->tps < seq) {
        covered = false;
        break;
      }
    }
    if (covered) {
      Value enc = BaseMetaValue(r, slot, kBaseSchemaEnc);
      if (IsDeleteRecord(enc)) return Status::NotFound("deleted");
      for (BitIter it(needed); it; ++it) {
        (*out)[*it] = BaseDataValue(r, slot, static_cast<ColumnId>(*it));
      }
      if (observed_seq != nullptr) *observed_seq = seq;
      return Status::OK();
    }
  }

  while (seq != 0 && (remaining != 0 || !first_found)) {
    uint32_t boundary = r.historic_boundary.load(std::memory_order_acquire);
    if (seq < boundary) {
      // Continue inside the historic store (Section 4.3).
      HistoricStore* hist = r.historic.load(std::memory_order_acquire);
      if (hist != nullptr) {
        obs_.tail_chain_hops->Increment();
        auto versions = hist->VersionsOf(slot);
        for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
          if (it->seq > seq) continue;
          if (!(it->start_time < spec.as_of)) continue;
          if (IsSupersededRecord(it->schema_encoding)) continue;
          if (!first_found) {
            first_found = true;
            if (observed_seq != nullptr) *observed_seq = it->seq;
            if (IsDeleteRecord(it->schema_encoding)) {
              return Status::NotFound("deleted");
            }
          }
          ColumnMask take = it->mask & remaining;
          if (take != 0) {
            int vi = 0;
            for (BitIter b(it->mask); b; ++b, ++vi) {
              if (take & (1ull << *b)) (*out)[*b] = it->values[vi];
            }
            remaining &= ~take;
          }
          if (remaining == 0 && first_found) break;
        }
      }
      break;  // chain fully consumed (older than historic = base)
    }

    std::atomic<Value>* sref = r.updates.StartTimeSlot(seq);
    Value raw = sref->load(std::memory_order_acquire);
    Visibility vis = txn_manager_->Visible(sref, &raw, spec.as_of, spec.txn,
                                           spec.speculative);
    uint32_t back = static_cast<uint32_t>(r.updates.Read(seq, kTailIndirection));
    if (vis == Visibility::kInvisible) {
      seq = back;
      continue;
    }
    if (vis == Visibility::kVisibleSpeculative && spec.txn != nullptr) {
      spec.txn->commit_dependencies().push_back(raw);
    }
    Value enc = r.updates.Read(seq, kTailSchemaEncoding);
    if (IsSupersededRecord(enc)) {
      seq = back;  // intermediate same-txn version: implicitly invalid
      continue;
    }
    obs_.tail_chain_hops->Increment();
    if (!first_found) {
      first_found = true;
      if (observed_seq != nullptr) *observed_seq = seq;
      if (IsDeleteRecord(enc)) return Status::NotFound("deleted");
    }
    ColumnMask take = SchemaColumns(enc) & remaining;
    for (BitIter it(take); it; ++it) {
      (*out)[*it] = r.updates.Read(seq, kTailMetaColumns +
                                            static_cast<uint32_t>(*it));
    }
    remaining &= ~take;

    // Per-column TPS cut-off (latest reads only): once every remaining
    // column's base segment already consolidates the rest of the
    // chain, stop walking (Section 4.2).
    if (latest_mode && remaining != 0 && back != 0) {
      ColumnMask cut = 0;
      for (BitIter it(remaining); it; ++it) {
        BaseSegment* seg = Segment(r, static_cast<uint32_t>(*it));
        if (seg != nullptr && slot < seg->num_slots && seg->tps >= back) {
          (*out)[*it] = BaseDataValue(r, slot, static_cast<ColumnId>(*it));
          cut |= 1ull << *it;
        }
      }
      remaining &= ~cut;
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
  // long between its loads (the head/ever_updated/based samples may
  // predate a record's first update while a later segment load sees
  // many merges beyond the snapshot), so re-loading pointers or
  // trusting earlier samples would serve too-new values.
  //
  // The guard applies only to columns this slot has ever updated, read
  // *after* the segment loads: a merge publishes a segment (release)
  // only after it saw the consolidated update committed, and the
  // updater set the slot's ever-updated bit before its commit. So a
  // bit still clear after the acquire loads of the segments means no
  // loaded segment holds an update of that column for this slot; its
  // value is the insert's in every generation, whatever the Last
  // Updated Time says (a record updated and merged after the snapshot
  // would otherwise fail the guard on every attempt).
  ColumnMask fallback = remaining | base_resident;
  if (fallback == 0) return Status::OK();
  BaseSegment* lut_seg =
      r.base[schema_.num_columns() + kBaseLastUpdated].load(
          std::memory_order_acquire);
  BaseSegment* segs[64];  // one per ColumnMask bit
  for (BitIter it(fallback); it; ++it) {
    segs[*it] = Segment(r, static_cast<uint32_t>(*it));
  }
  const SlotMeta* meta_now = r.meta.load(std::memory_order_acquire);
  ColumnMask guarded =
      spec.as_of == kMaxTimestamp || meta_now == nullptr
          ? 0
          : fallback &
                meta_now[slot].ever_updated.load(std::memory_order_acquire);
  const bool lut_covers = lut_seg != nullptr && slot < lut_seg->num_slots;
  if (guarded != 0 && lut_covers) {
    Value lut = lut_seg->Get(slot);
    if (lut != kNull && (IsTxnId(lut) || lut >= spec.as_of)) {
      *consistent = false;
    }
  }
  for (BitIter it(fallback); it; ++it) {
    uint32_t col = static_cast<uint32_t>(*it);
    BaseSegment* seg = segs[col];
    bool seg_covers = seg != nullptr && slot < seg->num_slots;
    if ((guarded & (1ull << col)) != 0 && seg_covers &&
        (!lut_covers || seg->tps > lut_seg->tps)) {
      *consistent = false;
    }
    (*out)[*it] = seg_covers
                      ? seg->Get(slot)
                      : r.inserts.Read(slot + 1, kTailMetaColumns + col);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Txn Table::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_->Begin(iso));
}

Timestamp Table::Now() const { return txn_manager_->SnapshotNow(); }

Status Table::ValidateReads(Transaction* txn, Timestamp commit_time) {
  bool validate_all = txn->isolation() == IsolationLevel::kSerializable;
  bool validate_spec = txn->isolation() != IsolationLevel::kReadCommitted;
  if (!validate_all && !validate_spec) return Status::OK();
  EpochGuard guard(epochs_);
  // Reads of this transaction's own writes trivially validate.
  std::unordered_set<uint64_t> own;
  for (const WriteEntry& w : txn->writeset()) {
    if (w.owner == this && !w.is_insert) {
      own.insert((w.range_id << 24) | w.seq);
    }
  }
  for (const ReadEntry& e : txn->readset()) {
    if (e.owner != this) continue;
    if (!validate_all && !e.speculative) continue;
    if (own.count((e.range_id << 24) | e.observed_seq) != 0) continue;
    Range* r = GetRange(e.range_id);
    if (r == nullptr) continue;
    std::vector<Value> tmp(schema_.num_columns(), kNull);
    uint32_t now_seq = 0;
    // Re-resolve the visible version as of the commit time, ignoring
    // our own pre-commit versions (spec.txn = nullptr: they carry
    // our txn id and would otherwise shadow the committed version).
    ReadSpec spec{commit_time, nullptr, /*speculative=*/false};
    Status s = ResolveRecord(*r, e.base_slot, spec, 0, &tmp, &now_seq);
    (void)s;  // NotFound encodes deletion; seq comparison covers it
    if (now_seq != e.observed_seq &&
        own.count((e.range_id << 24) | now_seq) == 0) {
      return Status::Aborted("read validation failed");
    }
  }
  // Speculative commit dependencies must have committed ([18]).
  for (TxnId dep : txn->commit_dependencies()) {
    if (!txn_manager_->AwaitOutcome(dep)) {
      return Status::Aborted("speculative dependency aborted");
    }
  }
  return Status::OK();
}

Status Table::WriteCommitRecord(Transaction* txn, Timestamp commit_time) {
  if (log_ == nullptr) return Status::OK();
  AppendCommitRecord(txn, commit_time);
  return log_->Flush(config_.sync_commit);
}

uint64_t Table::AppendCommitRecord(Transaction* txn, Timestamp commit_time) {
  if (log_ == nullptr) return 0;
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  rec.commit_time = commit_time;
  return log_->Append(rec);
}

void Table::StampWrites(Transaction* txn, Value outcome) {
  // The pin keeps tail pages alive: without it, an insert-merge (or
  // historic compression) that already resolved this transaction's
  // outcome via the manager could reclaim the pages under our feet.
  EpochGuard guard(epochs_);
  Range* scheduled = nullptr;
  for (const WriteEntry& w : txn->writeset()) {
    if (w.owner != this) continue;
    Range* r = GetRange(w.range_id);
    if (r == nullptr) continue;
    if (w.is_insert &&
        w.base_slot < r->based.load(std::memory_order_acquire)) {
      // Insert-merge consumed the record: the outcome is already in
      // the base segment's Start Time column and the table-level tail
      // page may be reclaimed. Only the index rollback remains.
      if (outcome == kAbortedStamp) primary_.Erase(w.inserted_key);
      continue;
    }
    if (!w.is_insert &&
        w.seq < r->historic_boundary.load(std::memory_order_acquire)) {
      continue;  // compressed away; outcome was resolved before that
    }
    TailSegment& seg = w.is_insert ? r->inserts : r->updates;
    std::atomic<Value>* slot = seg.StartTimeSlot(w.seq);
    Value expected = txn->id();
    slot->compare_exchange_strong(expected, outcome,
                                  std::memory_order_acq_rel);
    if (w.is_insert) {
      if (outcome == kAbortedStamp) primary_.Erase(w.inserted_key);
      // An insert-merge scheduled while this transaction was in flight
      // stopped at its first record; with no later insert into the
      // range nothing would schedule another, leaving the records in
      // table-level tail pages. Schedule one now that they resolved.
      if (r != scheduled) {
        MaybeScheduleMerge(*r);
        scheduled = r;
      }
    }
  }
}

Status Table::CommitTxn(Transaction* txn) {
  return CommitAcrossTables(*txn_manager_, txn, {this}, group_commit_);
}

void Table::AbortTxn(Transaction* txn) {
  AbortAcrossTables(*txn_manager_, txn, {this});
}

void Table::WriteAbortRecord(Transaction* txn, bool flush) {
  if (log_ == nullptr) return;
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  log_->Append(rec);
  if (flush) (void)log_->Flush(config_.sync_commit);
}

// ---------------------------------------------------------------------------
// Insert, single and batched (Section 3.2)
// ---------------------------------------------------------------------------

Status Table::Insert(Txn& txn, const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  EpochGuard guard(epochs_);
  return InsertRows(txn.raw(), &row, 1);
}

Status Table::InsertBatch(Txn& txn,
                          const std::vector<std::vector<Value>>& rows) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  EpochGuard guard(epochs_);
  return InsertRows(txn.raw(), rows.data(), rows.size());
}

Status Table::InsertRows(Transaction* txn, const std::vector<Value>* rows,
                         size_t n) {
  const uint32_t ncols = schema_.num_columns();
  size_t reserved = 0;  // rows before the first bad-arity row
  while (reserved < n && rows[reserved].size() == ncols) ++reserved;
  Status status = reserved < n ? Status::InvalidArgument("row arity mismatch")
                               : Status::OK();
  if (reserved == 0) return status;

  const Rid first = next_row_.fetch_add(reserved, std::memory_order_relaxed);
  // The rows' last range is the only one that can fall past the
  // directory's limit; such a batch fails whole, index unchanged.
  if (EnsureRange(RangeOf(first + reserved - 1)) == nullptr) {
    return Status::Busy("range space exhausted");
  }
  InlineBuffer<Value> keys(reserved);
  InlineBuffer<Rid> rids(reserved);
  InlineBuffer<bool> ok(reserved);
  for (size_t i = 0; i < reserved; ++i) {
    keys[i] = rows[i][0];
    rids[i] = first + i;
  }
  primary_.InsertBatch(keys.data(), rids.data(), reserved, ok.data());
  size_t inserted = 0;
  while (inserted < reserved && ok[inserted]) ++inserted;
  if (inserted < reserved) {
    status = Status::AlreadyExists("duplicate key");
    // No row past the failure stays indexed. A key repeated within the
    // batch failed at its later occurrences, so these erase only
    // entries this batch made.
    for (size_t i = inserted + 1; i < reserved; ++i) {
      if (ok[i]) primary_.Erase(keys[i]);
    }
  }

  // Fill table-level tail pages (aligned base/tail RIDs: slot s is
  // record s + 1) one page run at a time, each column's page resolved
  // once per run. Start Times are published before logging
  // (checkpoint watermark invariant; see WriteTailVersion); slots
  // reserved past the failure are burned with the aborted stamp so
  // scans and merges skip them, and only the inserted rows are logged.
  RedoLog::Batch runs;
  for (size_t i = 0; i < reserved;) {
    Range* r = EnsureRange(RangeOf(first + i));
    const uint32_t slot0 = SlotOf(first + i);
    const size_t range_end =
        i + std::min<size_t>(reserved - i, config_.range_size - slot0);
    TailSegment& tail = r->inserts;
    for (size_t j = i; j < range_end;) {
      const uint32_t slot = slot0 + static_cast<uint32_t>(j - i);
      const uint32_t at = tail.SlotInPage(slot + 1);
      const size_t len =
          std::min<size_t>(range_end - j, tail.page_slots() - at);
      const size_t filled = j < inserted ? std::min(len, inserted - j) : 0;
      for (uint32_t c = 0; c < ncols; ++c) {
        Page* p = tail.EnsurePageOf(slot + 1, kTailMetaColumns + c);
        for (size_t k = 0; k < filled; ++k) p->Set(at + k, rows[j + k][c]);
      }
      Page* indirection = tail.EnsurePageOf(slot + 1, kTailIndirection);
      Page* encoding = tail.EnsurePageOf(slot + 1, kTailSchemaEncoding);
      Page* base_rid = tail.EnsurePageOf(slot + 1, kTailBaseRid);
      Page* start = tail.EnsurePageOf(slot + 1, kTailStartTime);
      for (size_t k = 0; k < filled; ++k) {
        indirection->Set(at + k, 0);
        encoding->Set(at + k, 0);
        base_rid->Set(at + k, slot + k);
      }
      for (size_t k = 0; k < len; ++k) {
        start->Set(at + k, k < filled ? txn->id() : kAbortedStamp);
      }
      j += len;
    }
    AtomicMax(r->occupied, slot0 + static_cast<uint32_t>(range_end - i));
    if (inserted > i) {
      const size_t count = std::min(range_end, inserted) - i;
      obs_.inserts->Add(count);
      if (log_ != nullptr) {
        runs.AddInsertRun(txn->id(), r->id, slot0, rows + i, count,
                          schema_.AllColumns());
      }
    }
    MaybeScheduleMerge(*r);
    i = range_end;
  }
  if (!runs.empty()) log_->AppendBatch(runs);

  for (size_t i = 0; i < inserted; ++i) {
    const uint32_t slot = SlotOf(first + i);
    txn->writeset().push_back(WriteEntry{RangeOf(first + i), slot, slot + 1,
                                         /*is_insert=*/true, keys[i], this});
  }
  {
    SpinGuard sg(secondary_latch_);
    for (auto& s : secondaries_) {
      for (size_t i = 0; i < inserted; ++i) {
        s.index->Add(rows[i][s.col], first + i);
      }
    }
  }
  return status;
}

// ---------------------------------------------------------------------------
// Update / Delete, single and batched (Section 3.1)
// ---------------------------------------------------------------------------

Status Table::Update(Txn& txn, Value key, ColumnMask mask,
                     const std::vector<Value>& row) {
  LSTORE_RETURN_IF_ERROR(CheckUpdate(mask, &row, 1));
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return WriteKeys(txn.raw(), &key, 1, mask, &row);
}

Status Table::Delete(Txn& txn, Value key) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return WriteKeys(txn.raw(), &key, 1, 0, nullptr);
}

Status Table::UpdateBatch(Txn& txn, const std::vector<Value>& keys,
                          ColumnMask mask,
                          const std::vector<std::vector<Value>>& rows) {
  if (keys.size() != rows.size()) {
    return Status::InvalidArgument("keys/rows arity mismatch");
  }
  LSTORE_RETURN_IF_ERROR(CheckUpdate(mask, rows.data(), rows.size()));
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return WriteKeys(txn.raw(), keys.data(), keys.size(), mask, rows.data());
}

Status Table::DeleteBatch(Txn& txn, const std::vector<Value>& keys) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return WriteKeys(txn.raw(), keys.data(), keys.size(), 0, nullptr);
}

Status Table::CheckUpdate(ColumnMask mask, const std::vector<Value>* rows,
                          size_t n) const {
  if (mask == 0 || (mask & 1ull) != 0) {
    return Status::InvalidArgument("cannot update key column / empty mask");
  }
  if ((mask & ~schema_.AllColumns()) != 0) {
    return Status::InvalidArgument("mask has unknown columns");
  }
  for (size_t i = 0; i < n; ++i) {
    if (rows[i].size() != schema_.num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
  }
  return Status::OK();
}

Status Table::WriteKeys(Transaction* txn, const Value* keys, size_t n,
                        ColumnMask mask, const std::vector<Value>* rows) {
  static const std::vector<Value> kEmpty;
  InlineBuffer<Rid> rids(n);
  primary_.MultiGet(keys, n, rids.data());
  RedoLog::Batch recs;
  RedoLog::Batch* sink = log_ != nullptr && n > 1 ? &recs : nullptr;
  EpochGuard guard(epochs_);
  Status s = Status::OK();
  for (size_t i = 0; i < n && s.ok(); ++i) {
    Range* r = nullptr;
    uint32_t slot = 0;
    s = Locate(rids[i], &r, &slot);
    if (s.ok()) {
      s = rows == nullptr
              ? WriteTailVersion(txn, *r, slot, 0, kEmpty, true, sink)
              : WriteTailVersion(txn, *r, slot, mask, rows[i], false, sink);
    }
  }
  if (sink != nullptr && !recs.empty()) log_->AppendBatch(recs);
  return s;
}

Status Table::WriteTailVersion(Transaction* txn, Range& r, uint32_t slot,
                               ColumnMask mask, const std::vector<Value>& row,
                               bool is_delete, RedoLog::Batch* log_sink) {
  SlotMeta& meta = r.EnsureMeta()[slot];
  auto& ind = meta.indirection;

  // Step 1 of write-write conflict detection: CAS the latch bit
  // (Section 5.1.1). A set latch bit means a concurrent writer.
  uint64_t iv = ind.load(std::memory_order_acquire);
  for (;;) {
    if (IndirLatched(iv)) {
      obs_.ww_conflicts->Increment();
      return Status::Aborted("write-write conflict (latch)");
    }
    if (ind.compare_exchange_weak(iv, iv | kIndirLatchBit,
                                  std::memory_order_acq_rel)) {
      break;
    }
  }
  uint32_t prev_seq = IndirSeq(iv);

  // Step 2: inspect the start time of the latest version. A chain
  // head below the historic boundary was compressed away: only
  // records with RESOLVED outcomes (stamped commit time or aborted
  // tombstone — the merge prefix scan guarantees it) are ever moved,
  // so such a head cannot belong to an in-flight writer — and the
  // tail page that held it may already be reclaimed, so it must not
  // be read. (Readers that pinned before the compression's retire
  // still read the live page; readers pinned after synchronize with
  // the boundary store through the epoch counter and skip it.)
  uint32_t head_boundary = r.historic_boundary.load(std::memory_order_acquire);
  Value latest_raw;
  if (prev_seq != 0) {
    latest_raw = prev_seq >= head_boundary
                     ? r.updates.Read(prev_seq, kTailStartTime)
                     : Value{1};  // historic ⇒ committed long ago
  } else {
    latest_raw = slot < r.based.load(std::memory_order_acquire)
                     ? BaseMetaValue(r, slot, kBaseStartTime)
                     : r.inserts.Read(slot + 1, kTailStartTime);
  }
  if (txn_manager_->InFlightWriter(latest_raw, txn)) {
    ind.store(iv, std::memory_order_release);  // release latch
    obs_.ww_conflicts->Increment();
    return Status::Aborted("write-write conflict (uncommitted version)");
  }

  // Reject updates of deleted records: find the newest non-aborted
  // version and check its delete flag.
  {
    uint32_t boundary = r.historic_boundary.load(std::memory_order_acquire);
    uint32_t s = prev_seq;
    while (s != 0 && s >= boundary &&
           IsAbortedStamp(r.updates.Read(s, kTailStartTime))) {
      s = static_cast<uint32_t>(r.updates.Read(s, kTailIndirection));
    }
    bool deleted = false;
    if (s != 0 && s >= boundary) {
      deleted = IsDeleteRecord(r.updates.Read(s, kTailSchemaEncoding));
    } else if (s != 0) {
      HistoricStore* hist = r.historic.load(std::memory_order_acquire);
      if (hist != nullptr) {
        auto versions = hist->VersionsOf(slot);
        for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
          if (it->seq > s) continue;
          deleted = IsDeleteRecord(it->schema_encoding);
          break;
        }
      }
    } else if (slot < r.based.load(std::memory_order_acquire)) {
      deleted = IsDeleteRecord(BaseMetaValue(r, slot, kBaseSchemaEnc)) &&
                prev_seq == 0;
    } else {
      deleted = IsAbortedStamp(r.inserts.Read(slot + 1, kTailStartTime));
    }
    if (deleted) {
      ind.store(iv, std::memory_order_release);
      return Status::NotFound("record deleted");
    }
  }

  uint64_t ever = meta.ever_updated.load(std::memory_order_relaxed);
  ColumnMask newly = mask & ~ever;
  uint32_t back = prev_seq;

  // Pre-image snapshot on the first update of a column (Section 3.1 /
  // Lemma 2): capture the original values so outdated base pages can
  // be discarded after merges without information loss.
  uint32_t snap_seq = 0;
  if (newly != 0) {
    snap_seq = r.updates.ReserveSeq();
    if (snap_seq > kMaxTailSeq) {
      ind.store(iv, std::memory_order_release);
      return Status::Busy("tail sequence space exhausted for range");
    }
    for (BitIter it(newly); it; ++it) {
      r.updates.Write(snap_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                      BaseDataValue(r, slot, static_cast<ColumnId>(*it)));
    }
    r.updates.Write(snap_seq, kTailIndirection, back);
    r.updates.Write(snap_seq, kTailBaseRid, slot);
    r.updates.Write(snap_seq, kTailSchemaEncoding, newly | kSnapshotFlag);
    back = snap_seq;
  }

  uint32_t new_seq = r.updates.ReserveSeq();
  if (new_seq > kMaxTailSeq) {
    ind.store(iv, std::memory_order_release);
    return Status::Busy("tail sequence space exhausted for range");
  }

  // Cumulative updates (Section 3.1), reset at the TPS high-water mark
  // (Section 4.2, Table 5).
  ColumnMask carry = 0;
  if (config_.cumulative_updates && prev_seq != 0 && !is_delete &&
      prev_seq > r.merged_tps.load(std::memory_order_acquire) &&
      prev_seq >= r.historic_boundary.load(std::memory_order_acquire)) {
    Value prev_raw = r.updates.Read(prev_seq, kTailStartTime);
    Value prev_enc = r.updates.Read(prev_seq, kTailSchemaEncoding);
    // Carry only from versions with a known-good outcome: a stamped
    // commit time or our own (an unstamped foreign txn id may belong
    // to an aborted transaction whose tombstone is still in flight).
    bool prev_trusted =
        !IsAbortedStamp(prev_raw) &&
        (!IsTxnId(prev_raw) || prev_raw == txn->id());
    if (prev_trusted && !IsSnapshotRecord(prev_enc) &&
        !IsDeleteRecord(prev_enc)) {
      carry = SchemaColumns(prev_enc) & ~mask;
    }
  }

  // Same-transaction stacking: if the new record covers every column
  // of the previous own record, the old one is superseded and readers
  // skip it even post-commit (Section 3.1). Written under the latch;
  // the record is still invisible to others (our txn is uncommitted).
  if (prev_seq != 0 && latest_raw == txn->id()) {
    Value prev_enc2 = r.updates.Read(prev_seq, kTailSchemaEncoding);
    ColumnMask prev_cols = SchemaColumns(prev_enc2);
    if (!IsSnapshotRecord(prev_enc2) &&
        ((mask | carry) & prev_cols) == prev_cols) {
      r.updates.Write(prev_seq, kTailSchemaEncoding,
                      prev_enc2 | kSupersededFlag);
    }
  }

  uint64_t enc = mask | carry | (is_delete ? kDeleteFlag : 0);
  for (BitIter it(carry); it; ++it) {
    r.updates.Write(new_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                    r.updates.Read(prev_seq, kTailMetaColumns +
                                                 static_cast<uint32_t>(*it)));
  }
  if (!is_delete) {
    for (BitIter it(mask); it; ++it) {
      r.updates.Write(new_seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                      row[*it]);
    }
  }
  r.updates.Write(new_seq, kTailIndirection, back);
  r.updates.Write(new_seq, kTailBaseRid, slot);
  r.updates.Write(new_seq, kTailSchemaEncoding, enc);

  // The pre-image snapshot inherits the old version's start time
  // (Table 2: t1 carries b2's 13:04).
  Value base_start = 0;
  if (snap_seq != 0) {
    base_start = slot < r.based.load(std::memory_order_acquire)
                     ? BaseMetaValue(r, slot, kBaseStartTime)
                     : r.inserts.Read(slot + 1, kTailStartTime);
  }

  // Publish start times BEFORE the log append; the new version carries
  // our txn id until the outcome is stamped. The order is a durability
  // protocol invariant: a checkpoint takes its log watermark and then
  // captures memory, so any record whose log append lies at or below
  // the watermark must already be published — records still unpublished
  // at capture are guaranteed to replay from the retained log tail.
  if (snap_seq != 0) {
    r.updates.StartTimeSlot(snap_seq)->store(base_start,
                                             std::memory_order_release);
    txn->writeset().push_back(
        WriteEntry{r.id, slot, snap_seq, /*is_insert=*/false, 0, this});
  }
  r.updates.StartTimeSlot(new_seq)->store(txn->id(),
                                          std::memory_order_release);

  if (log_ != nullptr) {
    if (snap_seq != 0) {
      LogTailAppend(r, snap_seq, base_start, txn->id(), log_sink);
    }
    LogTailAppend(r, new_seq, txn->id(), txn->id(), log_sink);
  }

  if (mask != 0) {
    meta.ever_updated.fetch_or(mask, std::memory_order_relaxed);
  }

  // Secondary index maintenance: add new postings (old postings are
  // removed lazily, Section 3.1 footnote 3).
  if (!is_delete) {
    SpinGuard sg(secondary_latch_);
    for (auto& s : secondaries_) {
      if (mask & (1ull << s.col)) {
        s.index->Add(row[s.col], r.id * config_.range_size + slot);
      }
    }
  }

  txn->writeset().push_back(
      WriteEntry{r.id, slot, new_seq, /*is_insert=*/false, 0, this});

  // Release the latch and publish the new chain head: the only
  // in-place update in the architecture.
  ind.store(new_seq, std::memory_order_release);

  (is_delete ? obs_.deletes : obs_.updates)->Increment();
  MaybeScheduleMerge(r);
  return Status::OK();
}

void Table::LogTailAppend(const Range& r, uint32_t seq, Value start_raw,
                          TxnId txn_id, RedoLog::Batch* log_sink) {
  const TailSegment& seg = r.updates;
  uint64_t schema_encoding = seg.Read(seq, kTailSchemaEncoding);
  ColumnMask cols = SchemaColumns(schema_encoding);
  RedoLog::AppendWriter rec(
      LogRecordType::kTailAppend, txn_id, r.id, seq,
      static_cast<uint32_t>(seg.Read(seq, kTailBaseRid)),
      static_cast<uint32_t>(seg.Read(seq, kTailIndirection)), schema_encoding,
      start_raw, cols);
  for (BitIter it(cols); it; ++it) {
    rec.AddValue(seg.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it)));
  }
  if (log_sink != nullptr) {
    log_sink->Add(rec);
  } else {
    log_->Append(rec);
  }
}

// ---------------------------------------------------------------------------
// Reads, single and batched
// ---------------------------------------------------------------------------

Status Table::Locate(Rid rid, Range** r, uint32_t* slot) const {
  if (rid == kInvalidRid) return Status::NotFound("no such key");
  *r = GetRange(RangeOf(rid));
  if (*r == nullptr) return Status::NotFound("no such range");
  *slot = SlotOf(rid);
  return Status::OK();
}

Table::ReadSpec Table::SessionSpec(Transaction* txn, bool speculative) {
  Timestamp as_of = txn->isolation() == IsolationLevel::kReadCommitted
                        ? kMaxTimestamp
                        : txn->begin_time();
  return ReadSpec{as_of, txn, speculative};
}

Status Table::ReadLocated(Range& r, uint32_t slot, const ReadSpec& spec,
                          ColumnMask mask, std::vector<Value>* out) {
  // Unknown mask bits are ignored, so ~0ull reads every column — and
  // a hostile mask (e.g. from the network service) cannot index past
  // the column store.
  mask &= schema_.AllColumns();
  out->assign(schema_.num_columns(), kNull);
  obs_.reads->Increment();
  Transaction* txn = spec.txn;
  if (txn == nullptr) return ResolveRecord(r, slot, spec, mask, out, nullptr);
  size_t deps_before = txn->commit_dependencies().size();
  uint32_t observed = 0;
  Status s = ResolveRecord(r, slot, spec, mask, out, &observed);
  bool speculated = txn->commit_dependencies().size() > deps_before;
  TxnId dep = speculated ? txn->commit_dependencies().back() : 0;
  txn->readset().push_back(
      ReadEntry{r.id, slot, observed, speculated, dep, this});
  return s;
}

Status Table::ReadKey(Value key, const ReadSpec& spec, ColumnMask mask,
                      std::vector<Value>* out) {
  Range* r = nullptr;
  uint32_t slot = 0;
  Status s = Locate(primary_.Get(key), &r, &slot);
  if (!s.ok()) {
    out->assign(schema_.num_columns(), kNull);
    return s;
  }
  EpochGuard guard(epochs_);
  return ReadLocated(*r, slot, spec, mask, out);
}

Status Table::Read(Txn& txn, Value key, ColumnMask mask,
                   std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return ReadKey(key, SessionSpec(txn.raw(), false), mask, out);
}

Status Table::SpeculativeRead(Txn& txn, Value key, ColumnMask mask,
                              std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return ReadKey(key, SessionSpec(txn.raw(), true), mask, out);
}

Status Table::ReadAsOf(Value key, Timestamp as_of, ColumnMask mask,
                       std::vector<Value>* out) {
  return ReadKey(key, ReadSpec{as_of, nullptr, /*speculative=*/false}, mask,
                 out);
}

Status Table::MultiRead(Txn& txn, const std::vector<Value>& keys,
                        ColumnMask mask, std::vector<std::vector<Value>>* rows,
                        std::vector<Status>* statuses) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  rows->assign(keys.size(), {});
  if (statuses != nullptr) statuses->assign(keys.size(), Status::OK());
  // One sharded probe pass and one epoch pin for the whole batch.
  InlineBuffer<Rid> rids(keys.size());
  primary_.MultiGet(keys.data(), keys.size(), rids.data());
  EpochGuard guard(epochs_);
  const ReadSpec spec = SessionSpec(txn.raw(), false);
  Status first = Status::OK();
  for (size_t i = 0; i < keys.size(); ++i) {
    Range* r = nullptr;
    uint32_t slot = 0;
    Status s = Locate(rids[i], &r, &slot);
    if (s.ok()) {
      s = ReadLocated(*r, slot, spec, mask, &(*rows)[i]);
      if (!s.ok()) (*rows)[i].clear();
    }
    if (!s.ok() && first.ok()) first = s;
    if (statuses != nullptr) (*statuses)[i] = s;
  }
  return first;
}

// ---------------------------------------------------------------------------
// Scans live in core/query.cc (Query is the sole scan surface).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Secondary indexes
// ---------------------------------------------------------------------------

void Table::CreateSecondaryIndex(ColumnId col) {
  auto index = std::make_unique<SecondaryIndex>();
  // Backfill from current visible data.
  NewQuery()
      .Project((1ull << col) | 1ull)
      .AsOf(kMaxTimestamp)
      .Workers(1)
      .Visit([&](Value key, const std::vector<Value>& row) {
        Rid rid = primary_.Get(key);
        if (rid != kInvalidRid) index->Add(row[col], rid);
      });
  SpinGuard sg(secondary_latch_);
  secondaries_.push_back(SecondaryEntry{col, std::move(index)});
}

// ---------------------------------------------------------------------------
// Maintenance entry points (bodies in merge.cc / historic.cc)
// ---------------------------------------------------------------------------

void Table::MaybeScheduleMerge(Range& r) {
  if (!config_.enable_merge_thread || merge_manager_ == nullptr) return;
  uint32_t unmerged =
      r.updates.LastSeq() - r.merged_tps.load(std::memory_order_acquire);
  uint32_t unbased = r.occupied.load(std::memory_order_acquire) -
                     r.based.load(std::memory_order_acquire);
  bool full = r.occupied.load(std::memory_order_acquire) >=
              config_.range_size;
  if (unmerged >= config_.merge_threshold ||
      unbased >= std::min(config_.range_size, config_.merge_threshold) ||
      (full && unbased > 0)) {
    bool expected = false;
    if (r.queued.compare_exchange_strong(expected, true)) {
      merge_manager_->Enqueue(r.id);
    }
  }
}

bool Table::MergeRangeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunUpdateMerge(*r, schema_.AllColumns(), true);
}

bool Table::MergeRangeColumns(uint64_t range_id, ColumnMask cols) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunUpdateMerge(*r, cols, false);
}

bool Table::InsertMergeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return false;
  return RunInsertMerge(*r);
}

size_t Table::CompressHistoricNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  if (r == nullptr) return 0;
  return RunHistoricCompression(*r);
}

void Table::FlushAll() {
  uint64_t nranges = num_ranges();
  for (uint64_t i = 0; i < nranges; ++i) {
    Range* r = GetRange(i);
    if (r == nullptr) continue;
    RunInsertMerge(*r);
    RunUpdateMerge(*r, schema_.AllColumns(), true);
  }
  epochs_.TryReclaim();
}

void Table::WaitForMergeQueue() {
  if (merge_manager_) merge_manager_->Drain();
}

// ---------------------------------------------------------------------------
// Recovery (Section 5.1.3): see src/checkpoint/recovery.cc for
// RecoverFromLog / RecoverDurable / ReplayAndRebuild.
// ---------------------------------------------------------------------------

}  // namespace lstore
