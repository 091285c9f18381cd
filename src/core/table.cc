#include "core/table.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/bitutil.h"
#include "common/checksum.h"
#include "common/inline_buffer.h"
#include "core/query.h"
#include "obs/health.h"

namespace lstore {

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Table::Table(std::string name, Schema schema, TableConfig config,
             TransactionManager* txn_manager)
    : EngineCore(std::move(name), std::move(schema), config, txn_manager) {
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
  const uint32_t ncols = schema_.num_columns();
  range_ctx_ = RangeContext{
      ncols, ncols >= 64 ? ~0ull : (1ull << ncols) - 1, &config_, txn_manager_,
      &epochs_,
      [this](std::unique_ptr<CompressedColumn> col) {
        return MakeSegmentPage(std::move(col));
      },
      &obs_};
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
  if (config_.enable_merge_thread && config_.health != nullptr) {
    merge_hb_ = config_.health->Register("merge:" + name_);
  }
}

Table::~Table() {
  // No merge task may run over what the body below tears down.
  merge_tasks_.Stop();
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

uint32_t Table::RangeTps(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->merged_tps();
}

uint32_t Table::RangeTailLength(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->tail_length();
}

uint64_t Table::SumRanges(uint64_t (Range::*bytes)() const) const {
  EpochGuard guard(epochs_);
  uint64_t sum = 0;
  for (uint64_t id = 0; id < num_ranges(); ++id) {
    if (Range* r = GetRange(id)) sum += (r->*bytes)();
  }
  return sum;
}

void Table::CollectSizeGauges(MetricsRegistry& r,
                              const std::vector<const Table*>& tables) {
  size_t epoch_pending = 0, index_bytes = 0;
  uint64_t base_bytes = 0, update_meta_bytes = 0, tail_bytes = 0;
  for (const Table* t : tables) {
    epoch_pending += t->epochs_.pending();
    index_bytes += t->PrimaryIndexBytes();
    base_bytes += t->BaseResidentBytes();
    update_meta_bytes += t->UpdateMetaBytes();
    tail_bytes += t->TailBytes();
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
  r.GetGauge("lstore_tail_bytes",
             "Allocated update and insert tail-page bytes across tables")
      ->Set(static_cast<int64_t>(tail_bytes));
}

std::vector<uint32_t> Table::RangeColumnTps(uint64_t range_id) const {
  Range* r = GetRange(range_id);
  if (r == nullptr) return {};
  EpochGuard guard(epochs_);
  return r->ColumnTps();
}

std::vector<Table::ChainEntry> Table::DebugChain(Value key,
                                                 ColumnId col) const {
  Located at;
  if (!Locate(primary_.Get(key), &at).ok()) return {};
  EpochGuard guard(epochs_);
  return at.range->DebugChain(at.slot, col);
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

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Status Table::ValidateReads(Transaction* txn, Timestamp commit_time) {
  bool validate_all = txn->isolation() == IsolationLevel::kSerializable;
  bool validate_spec = txn->isolation() != IsolationLevel::kReadCommitted;
  if (!validate_all && !validate_spec) return Status::OK();
  if (txn->commit_dependencies().empty() &&
      std::none_of(txn->readset().begin(), txn->readset().end(),
                   [this](const ReadEntry& e) { return e.owner == this; })) {
    return Status::OK();  // a blind writer here: nothing to validate
  }
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
    Status s = r->Resolve(e.base_slot, spec, 0, &tmp, &now_seq);
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
  // One pass over the rows finds the first bad-arity row and reads the
  // keys before it.
  InlineBuffer<Value> keys(n);
  size_t reserved = 0;
  for (; reserved < n && rows[reserved].size() == ncols; ++reserved) {
    keys[reserved] = rows[reserved][0];
  }
  Status status = reserved < n ? Status::InvalidArgument("row arity mismatch")
                               : Status::OK();
  if (reserved == 0) return status;

  const Rid first = next_row_.fetch_add(reserved, std::memory_order_relaxed);
  // The rows' last range is the only one that can fall past the
  // directory's limit; such a batch fails whole, index unchanged.
  if (EnsureRange(RangeOf(first + reserved - 1)) == nullptr) {
    return Status::Busy("range space exhausted");
  }
  InlineBuffer<Rid> rids(reserved);
  InlineBuffer<bool> ok(reserved);
  for (size_t i = 0; i < reserved; ++i) rids[i] = first + i;
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

  // Fill table-level tail pages range by range. Start Times are
  // published before logging (checkpoint watermark invariant; see
  // Range::AppendVersion); slots reserved past the failure are burned
  // with the aborted stamp so scans and merges skip them, and only the
  // inserted rows are logged.
  RedoLog::Batch runs;
  for (size_t i = 0; i < reserved;) {
    Range* r = EnsureRange(RangeOf(first + i));
    const uint32_t slot0 = SlotOf(first + i);
    const size_t count =
        std::min<size_t>(reserved - i, config_.range_size - slot0);
    const size_t filled = inserted > i ? std::min(count, inserted - i) : 0;
    r->FillInserts(slot0, rows + i, count, filled, txn->id());
    if (filled > 0) {
      obs_.inserts->Add(filled);
      txn->writeset().push_back(WriteEntry{r->id(), slot0, slot0 + 1,
                                           /*is_insert=*/true, 0, this,
                                           static_cast<uint32_t>(filled)});
      if (log_ != nullptr) {
        runs.AddInsertRun(log_id_, txn->id(), r->id(), slot0, rows + i,
                          filled, schema_.AllColumns());
      }
    }
    i += count;
  }
  if (!runs.empty()) log_->AppendBatch(runs);

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
    Located at;
    s = Locate(rids[i], &at);
    if (s.ok()) {
      s = rows == nullptr ? WriteTailVersion(txn, *at.range, at.slot, 0,
                                             kEmpty, true, sink)
                          : WriteTailVersion(txn, *at.range, at.slot, mask,
                                             rows[i], false, sink);
    }
  }
  if (sink != nullptr && !recs.empty()) log_->AppendBatch(recs);
  return s;
}

Status Table::WriteTailVersion(Transaction* txn, Range& r, uint32_t slot,
                               ColumnMask mask, const std::vector<Value>& row,
                               bool is_delete, RedoLog::Batch* log_sink) {
  Range::TailVersion v;
  LSTORE_RETURN_IF_ERROR(r.AppendVersion(txn, slot, mask, row, is_delete, &v));
  if (v.snap_seq != 0) {
    txn->writeset().push_back(
        WriteEntry{r.id(), slot, v.snap_seq, /*is_insert=*/false, 0, this});
  }
  // The start times are published; the log append precedes the release
  // of the chain head.
  auto log = [&](uint32_t seq, Value start_raw) {
    const TailRecord t = r.ReadRecord(TailKind::kUpdate, seq);
    RedoLog::AppendWriter rec(LogRecordType::kTailAppend, log_id_, txn->id(),
                              r.id(), seq, static_cast<uint32_t>(t.base_slot),
                              static_cast<uint32_t>(t.backptr), t.encoding,
                              start_raw, t.cols);
    for (int i = 0; i < PopCount(t.cols); ++i) rec.AddValue(t.values[i]);
    if (log_sink != nullptr) {
      log_sink->Add(rec);
    } else {
      log_->Append(rec);
    }
  };
  if (log_ != nullptr) {
    if (v.snap_seq != 0) log(v.snap_seq, v.snap_start);
    log(v.seq, txn->id());
  }

  // Secondary index maintenance: add new postings (old postings are
  // removed lazily, Section 3.1 footnote 3).
  if (!is_delete) {
    SpinGuard sg(secondary_latch_);
    for (auto& s : secondaries_) {
      if (mask & (1ull << s.col)) {
        s.index->Add(row[s.col], r.id() * config_.range_size + slot);
      }
    }
  }

  txn->writeset().push_back(
      WriteEntry{r.id(), slot, v.seq, /*is_insert=*/false, 0, this});
  r.PublishVersion(slot, v.seq, mask);

  (is_delete ? obs_.deletes : obs_.updates)->Increment();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads, single and batched
// ---------------------------------------------------------------------------

Status Table::ReadLocated(Range& r, uint32_t slot, const ReadSpec& spec,
                          ColumnMask mask, std::vector<Value>* out) {
  // Unknown mask bits are ignored, so ~0ull reads every column — and
  // a hostile mask (e.g. from the network service) cannot index past
  // the column store.
  mask &= schema_.AllColumns();
  out->assign(schema_.num_columns(), kNull);
  obs_.reads->Increment();
  Transaction* txn = spec.txn;
  if (txn == nullptr) return r.Resolve(slot, spec, mask, out, nullptr);
  size_t deps_before = txn->commit_dependencies().size();
  uint32_t observed = 0;
  Status s = r.Resolve(slot, spec, mask, out, &observed);
  bool speculated = txn->commit_dependencies().size() > deps_before;
  TxnId dep = speculated ? txn->commit_dependencies().back() : 0;
  txn->readset().push_back(
      ReadEntry{r.id(), slot, observed, speculated, dep, this});
  return s;
}

Status Table::ReadKey(Value key, const ReadSpec& spec, ColumnMask mask,
                      std::vector<Value>* out) {
  Located at;
  Status s = Locate(primary_.Get(key), &at);
  if (!s.ok()) {
    out->assign(schema_.num_columns(), kNull);
    return s;
  }
  EpochGuard guard(epochs_);
  return ReadLocated(*at.range, at.slot, spec, mask, out);
}

Status Table::Read(Txn& txn, Value key, ColumnMask mask,
                   std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return ReadKey(key, ReadSpec{ReadTime(txn.raw()), txn.raw(), false}, mask,
                 out);
}

Status Table::SpeculativeRead(Txn& txn, Value key, ColumnMask mask,
                              std::vector<Value>* out) {
  LSTORE_RETURN_IF_ERROR(CheckActive(txn, this, txn_scope_));
  return ReadKey(key, ReadSpec{ReadTime(txn.raw()), txn.raw(), true}, mask,
                 out);
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
  const ReadSpec spec{ReadTime(txn.raw()), txn.raw(), false};
  Status first = Status::OK();
  for (size_t i = 0; i < keys.size(); ++i) {
    Located at;
    Status s = Locate(rids[i], &at);
    if (s.ok()) {
      s = ReadLocated(*at.range, at.slot, spec, mask, &(*rows)[i]);
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
// Maintenance entry points (merge bodies in range.cc / historic.cc)
// ---------------------------------------------------------------------------

void Table::WritesStamped(Range& r, uint64_t id) {
  if (config_.enable_merge_thread && r.TakeMergeTrigger()) {
    merge_tasks_.Post([this, id] { RunMerge(id); });
  }
}

void Table::RunMerge(uint64_t range_id) {
  // Busy-scoped: an idle queue is healthy; only time inside a task
  // counts against the watchdog's deadlines.
  HeartbeatWorkScope work(merge_hb_.get());
  // Test hook: park here — busy, not beating — so health tests can
  // simulate a stalled merge deterministically.
  if (std::atomic<int>* park = config_.merge_test_park;
      park != nullptr && park->load(std::memory_order_acquire) != 0) {
    park->store(2, std::memory_order_release);  // ack: parked
    while (park->load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (merge_hb_ != nullptr) merge_hb_->Beat();  // the merge itself starts
  if (Range* r = GetRange(range_id)) {
    // Release first: a trigger taken while this task merges queues the
    // next task, so none is lost.
    r->ReleaseMergeTrigger();
    r->InsertMerge();
    r->UpdateMerge(schema_.AllColumns(), true);
  }
  epochs_.TryReclaim();
}

bool Table::MergeRangeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  return r != nullptr && r->UpdateMerge(schema_.AllColumns(), true);
}

bool Table::MergeRangeColumns(uint64_t range_id, ColumnMask cols) {
  Range* r = GetRange(range_id);
  return r != nullptr && r->UpdateMerge(cols, false);
}

bool Table::InsertMergeNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  return r != nullptr && r->InsertMerge();
}

size_t Table::CompressHistoricNow(uint64_t range_id) {
  Range* r = GetRange(range_id);
  return r == nullptr ? 0 : r->CompressHistoric();
}

void Table::FlushAll() {
  for (uint64_t i = 0; i < num_ranges(); ++i) {
    if (Range* r = GetRange(i)) {
      r->InsertMerge();
      r->UpdateMerge(schema_.AllColumns(), true);
    }
  }
  epochs_.TryReclaim();
}

// ---------------------------------------------------------------------------
// Recovery (Section 5.1.3): see src/checkpoint/recovery.cc for
// ReplayLog / ResolveAndRebuild, which Database::Recover runs.
// ---------------------------------------------------------------------------

}  // namespace lstore
