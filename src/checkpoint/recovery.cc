// Restart recovery (Section 5.1.3, recovery option 2).
//
// A table recovers in four steps:
//   1. load the latest checkpoint file (lineage-consistent snapshot of
//      base segments, tail pages, and the historic store),
//   2. replay the redo-log tail beyond the checkpoint's LSN watermark,
//      tolerating a torn or corrupt final record,
//   3. resolve every Start Time still holding a transaction id using
//      the logged commit/abort outcomes (crash before the outcome
//      record = aborted tombstone),
//   4. rebuild the primary index and the in-place Indirection column
//      from the Base RID backpointers of the tail records — neither is
//      logged nor checkpointed, exactly as the paper prescribes.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checkpoint/serde.h"
#include "common/bitutil.h"
#include "core/historic.h"
#include "core/table.h"
#include "log/redo_log.h"

namespace lstore {

namespace {

void AtomicMaxU32(std::atomic<uint32_t>& a, uint32_t v) {
  uint32_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

}  // namespace

std::vector<ColumnId> Table::SecondaryColumns() const {
  SpinGuard g(secondary_latch_);
  std::vector<ColumnId> out;
  out.reserve(secondaries_.size());
  for (const auto& s : secondaries_) out.push_back(s.col);
  return out;
}

Status Table::ReplayAndRebuild(
    uint64_t watermark,
    const std::unordered_map<TxnId, Timestamp>* db_commits,
    const std::vector<std::string>* log_paths, Timestamp commit_horizon) {
  // Buffer-managed segments: recovery reads through pinned page
  // handles (an already-recovered table's merge thread can evict our
  // cold pages through the shared pool), so hold the epoch pin the
  // handle contract requires.
  EpochGuard guard(epochs_);
  // Seed the outcome map with the database commit log's verdicts:
  // cross-table transactions leave no commit record in this table's
  // log, and every participant recovers against the same map, so a
  // cross-table transaction replays on all of them or none.
  std::unordered_map<TxnId, Timestamp> commits;
  if (db_commits != nullptr) commits = *db_commits;
  Timestamp max_time = 0;

  // --- step 2: replay the redo-log tail -----------------------------------
  // The default source is the table's live log; a point-in-time
  // restore passes the stitched stream instead (sealed archive
  // segments in LSN order, then the live log — each one a
  // self-describing framed file, so the same Replay reads them all).
  std::vector<std::string> default_paths;
  if (log_paths == nullptr) {
    if (!config_.log_path.empty()) default_paths.push_back(config_.log_path);
    log_paths = &default_paths;
  }
  {
    std::vector<LogRecord> appends;
    Status rs = Status::OK();
    for (const std::string& log_path : *log_paths) {
      RedoLog::ReplayStats stats;
      rs = RedoLog::Replay(
        log_path,
        [&](const LogRecord& rec, uint64_t lsn) {
          switch (rec.type) {
            case LogRecordType::kCommit:
              // Commits beyond the restore horizon never happened in
              // the restored timeline: their tail records resolve to
              // aborted tombstones below.
              if (rec.commit_time <= commit_horizon) {
                commits[rec.txn_id] = rec.commit_time;
              }
              break;
            case LogRecordType::kAbort:
              // An abort record can FOLLOW a commit record of the same
              // transaction (a per-table commit record whose pipeline
              // failed later, or a commit-log record whose flush
              // failed), so the later abort is authoritative: the
              // in-memory commit point, the manager state flip, never
              // happened and the client saw the abort. Txn ids are
              // never reused, so erasing cannot drop a commit that
              // comes later in the log.
              commits.erase(rec.txn_id);
              break;
            case LogRecordType::kTailAppend:
            case LogRecordType::kInsertAppend:
              // Records at or below the watermark are covered by the
              // checkpoint; replaying beyond it is idempotent even for
              // records the checkpoint also captured.
              if (lsn > watermark) appends.push_back(rec);
              break;
            default:
              break;
          }
        },
        &stats);
      if (!rs.ok()) return rs;
    }

    // Overlapping archive segments (a crash between seal and truncate
    // re-seals a longer prefix) can deliver a record twice; the writes
    // below are idempotent, so duplicates are harmless.
    for (const LogRecord& rec : appends) {
      // A CRC-valid record can still name a range the directory cannot
      // hold or a slot past the range.
      Range* r = rec.base_slot < config_.range_size
                     ? EnsureRange(rec.range_id)
                     : nullptr;
      if (r == nullptr) {
        return Status::Corruption("redo record range or slot overflow");
      }
      TailSegment& seg = rec.type == LogRecordType::kInsertAppend
                             ? r->inserts
                             : r->updates;
      if (rec.type == LogRecordType::kTailAppend) {
        r->updates.AdvanceSeq(rec.seq);
      } else {
        r->inserts.AdvanceSeq(rec.seq);
        AtomicMaxU32(r->occupied, rec.base_slot + 1);
        uint64_t row_bound =
            rec.range_id * config_.range_size + rec.base_slot + 1;
        uint64_t cur = next_row_.load(std::memory_order_relaxed);
        while (cur < row_bound &&
               !next_row_.compare_exchange_weak(cur, row_bound,
                                                std::memory_order_relaxed)) {
        }
      }
      int vi = 0;
      for (BitIter it(rec.mask); it; ++it, ++vi) {
        seg.Write(rec.seq, kTailMetaColumns + static_cast<uint32_t>(*it),
                  rec.values[vi]);
      }
      seg.Write(rec.seq, kTailIndirection, rec.backptr);
      seg.Write(rec.seq, kTailBaseRid, rec.base_slot);
      seg.Write(rec.seq, kTailSchemaEncoding, rec.schema_encoding);

      // Outcome: commit time, aborted stamp, or (crash before the
      // outcome record) aborted stamp as well.
      Value start;
      auto it = commits.find(rec.txn_id);
      if (it != commits.end()) {
        start = it->second;
      } else if (rec.start_raw != 0 && !IsTxnId(rec.start_raw)) {
        // Pre-image snapshot record carrying an old commit time.
        start = rec.start_raw;
      } else {
        start = kAbortedStamp;
      }
      // Snapshot records of committed transactions carry the *old*
      // version's start time, not the commit time.
      if (IsSnapshotRecord(rec.schema_encoding) && rec.start_raw != 0 &&
          !IsTxnId(rec.start_raw)) {
        start = rec.start_raw;
      }
      seg.StartTimeSlot(rec.seq)->store(start, std::memory_order_release);
    }
  }

  // --- step 3: resolve outstanding transaction outcomes -------------------
  // Checkpoint-captured records of transactions that were still active
  // at capture time carry raw txn ids; their commit/abort records have
  // LSNs beyond the watermark, so the maps above hold the verdict.
  uint64_t nranges = num_ranges();
  for (uint64_t id = 0; id < nranges; ++id) {
    Range* r = GetRange(id);
    if (r == nullptr) continue;
    uint32_t boundary = r->historic_boundary.load(std::memory_order_acquire);
    uint32_t last = r->updates.LastSeq();
    for (uint32_t seq = std::max(boundary, 1u); seq <= last; ++seq) {
      std::atomic<Value>* sref = r->updates.StartTimeSlot(seq);
      Value raw = sref->load(std::memory_order_acquire);
      if (IsTxnId(raw)) {
        auto it = commits.find(raw);
        sref->store(it != commits.end() ? it->second : kAbortedStamp,
                    std::memory_order_release);
      }
    }
    uint32_t occupied = r->occupied.load(std::memory_order_acquire);
    uint32_t based = r->based.load(std::memory_order_acquire);
    for (uint32_t slot = based; slot < occupied; ++slot) {
      std::atomic<Value>* sref = r->inserts.StartTimeSlot(slot + 1);
      Value raw = sref->load(std::memory_order_acquire);
      if (IsTxnId(raw)) {
        auto it = commits.find(raw);
        sref->store(it != commits.end() ? it->second : kAbortedStamp,
                    std::memory_order_release);
      }
    }
  }

  // --- step 4: rebuild indexes + Indirection (recovery option 2) ----------
  // The primary index is filled one range at a time through its batched
  // insert (each shard latched and grown once per range).
  std::vector<Value> keys;
  std::vector<Rid> rids;
  std::unique_ptr<bool[]> ok(new bool[config_.range_size]);
  for (uint64_t id = 0; id < nranges; ++id) {
    Range* r = GetRange(id);
    if (r == nullptr) continue;
    uint32_t occupied = r->occupied.load(std::memory_order_acquire);
    uint32_t based = r->based.load(std::memory_order_acquire);
    // The index rebuild only needs the key and Start Time columns —
    // pin exactly those two per range (demand-loading them at most
    // once); every other lazily mapped column segment stays cold, so
    // restart cost for based data is O(hot set), not O(table).
    BaseSegment* start_seg =
        r->base[schema_.num_columns() + kBaseStartTime].load(
            std::memory_order_acquire);
    BaseSegment* key_seg = r->base[0].load(std::memory_order_acquire);
    PageHandle start_page =
        start_seg != nullptr ? start_seg->Pin() : PageHandle();
    PageHandle key_page = key_seg != nullptr ? key_seg->Pin() : PageHandle();
    keys.clear();
    rids.clear();
    for (uint32_t slot = 0; slot < occupied; ++slot) {
      Value start =
          (slot < based && start_seg != nullptr && slot < start_seg->num_slots)
              ? start_page.Get(slot)
              : r->inserts.Read(slot + 1, kTailStartTime);
      if (start == kNull || IsAbortedStamp(start) || IsTxnId(start)) continue;
      if (start > max_time) max_time = start;
      keys.push_back((key_seg != nullptr && slot < key_seg->num_slots)
                         ? key_page.Get(slot)
                         : r->inserts.Read(slot + 1, kTailMetaColumns + 0));
      rids.push_back(id * config_.range_size + slot);
    }
    primary_.InsertBatch(keys.data(), rids.data(), keys.size(), ok.get());

    // A version (tail or historic) of `slot` numbered `seq` with column
    // mask `cols`: raise the Indirection head and the ever-updated mask.
    auto note_version = [r](uint32_t slot, uint32_t seq, ColumnMask cols) {
      SlotMeta& m = r->EnsureMeta()[slot];
      if (seq > IndirSeq(m.indirection.load(std::memory_order_relaxed))) {
        m.indirection.store(seq, std::memory_order_release);
      }
      m.ever_updated.fetch_or(cols, std::memory_order_relaxed);
    };
    uint32_t boundary = r->historic_boundary.load(std::memory_order_acquire);
    uint32_t last = r->updates.LastSeq();
    for (uint32_t seq = std::max(boundary, 1u); seq <= last; ++seq) {
      Value raw = r->updates.Read(seq, kTailStartTime);
      if (raw == kNull || IsAbortedStamp(raw) || IsTxnId(raw)) continue;
      if (raw > max_time) max_time = raw;
      uint32_t slot =
          static_cast<uint32_t>(r->updates.Read(seq, kTailBaseRid));
      if (slot >= config_.range_size) continue;
      note_version(slot, seq,
                   SchemaColumns(r->updates.Read(seq, kTailSchemaEncoding)));
    }
    HistoricStore* hist = r->historic.load(std::memory_order_acquire);
    if (hist != nullptr) {
      for (uint32_t slot : hist->Slots()) {
        if (slot >= config_.range_size) continue;
        for (const HistoricStore::Version& v : hist->VersionsOf(slot)) {
          if (v.start_time > max_time) max_time = v.start_time;
          note_version(slot, v.seq, SchemaColumns(v.schema_encoding));
        }
      }
    }
  }

  // Resume the clock beyond every replayed commit, including no-op
  // commits that left no tail records.
  for (const auto& [txn, ct] : commits) {
    (void)txn;
    if (ct > max_time) max_time = ct;
  }
  txn_manager_->clock().AdvanceTo(max_time + 1);
  return Status::OK();
}

Status Table::RecoverDurable(
    const std::string& checkpoint_file, uint64_t log_watermark,
    uint64_t checkpoint_checksum,
    const std::unordered_map<TxnId, Timestamp>* db_commits,
    const std::vector<std::string>* log_paths, Timestamp commit_horizon) {
  // Replay must not race our own appender; close first.
  if (log_ != nullptr) log_->Close();

  if (!checkpoint_file.empty()) {
    LSTORE_RETURN_IF_ERROR(
        CheckpointIO::LoadTable(this, checkpoint_file, checkpoint_checksum));
  }
  LSTORE_RETURN_IF_ERROR(
      ReplayAndRebuild(log_watermark, db_commits, log_paths, commit_horizon));

  // Resume logging (append mode) on the constructor's log, which
  // carries the registry metrics.
  if (config_.enable_logging && !config_.log_path.empty()) {
    if (log_ == nullptr) log_ = std::make_unique<RedoLog>();
    LSTORE_RETURN_IF_ERROR(log_->Open(config_.log_path, /*truncate=*/false));
  }
  return Status::OK();
}

Status Table::RecoverFromLog() {
  if (config_.log_path.empty()) {
    return Status::InvalidArgument("no log path configured");
  }
  return RecoverDurable(/*checkpoint_file=*/"", /*log_watermark=*/0);
}

}  // namespace lstore
