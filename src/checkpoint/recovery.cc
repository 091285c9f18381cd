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
#include "core/table.h"
#include "log/redo_log.h"

namespace lstore {

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
    // re-seals a longer prefix) can deliver a record twice; applying a
    // record is idempotent, so duplicates are harmless.
    for (const LogRecord& rec : appends) {
      // A CRC-valid record can still name a range the directory cannot
      // hold, or anything Range::Apply refuses.
      Range* r = EnsureRange(rec.range_id);
      if (r == nullptr) {
        return Status::Corruption("redo record range overflow");
      }
      const bool insert = rec.type == LogRecordType::kInsertAppend;
      TailRecord t;
      t.seq = rec.seq;
      t.backptr = rec.backptr;
      t.base_slot = rec.base_slot;
      t.encoding = rec.schema_encoding;
      t.cols = rec.mask;
      std::copy(rec.values.begin(), rec.values.end(), t.values);
      // Outcome: the commit time, else (aborted, or a crash before the
      // outcome record) the aborted stamp. A pre-image snapshot record
      // carries the old version's start time instead.
      auto it = commits.find(rec.txn_id);
      t.start = it != commits.end() ? it->second : kAbortedStamp;
      if ((it == commits.end() || IsSnapshotRecord(rec.schema_encoding)) &&
          rec.start_raw != 0 && !IsTxnId(rec.start_raw)) {
        t.start = rec.start_raw;
      }
      LSTORE_RETURN_IF_ERROR(
          r->Apply(insert ? TailKind::kInsert : TailKind::kUpdate, t));
      if (insert) {
        AtomicMax(next_row_, rec.range_id * config_.range_size +
                                 rec.base_slot + 1);
      }
    }
  }

  // --- steps 3 and 4, one range at a time ---------------------------------
  // Resolve outstanding transaction outcomes, then rebuild the primary
  // index (one batched insert per range: each shard latched and grown
  // once) and the Indirection column (recovery option 2).
  std::vector<Value> keys;
  std::vector<Rid> rids;
  std::unique_ptr<bool[]> ok(new bool[config_.range_size]);
  for (uint64_t id = 0; id < num_ranges(); ++id) {
    Range* r = GetRange(id);
    if (r == nullptr) continue;
    r->Recover(commits, &keys, &rids, &max_time);
    primary_.InsertBatch(keys.data(), rids.data(), keys.size(), ok.get());
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
