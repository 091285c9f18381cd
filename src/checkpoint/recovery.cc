// Restart recovery (Section 5.1.3, recovery option 2).
//
// A table recovers in four steps:
//   1. load the latest checkpoint file (lineage-consistent snapshot of
//      base segments, tail pages, and the historic store),
//   2. open the redo log: its one scan restores the LSN counter, cuts a
//      torn or corrupt final record, and delivers every record. Each
//      append beyond the checkpoint's LSN watermark is applied as it
//      arrives, with its raw Start Time; commit and abort records
//      collect into the outcome map. Nothing is resolved yet, since a
//      record's outcome may lie later in the log,
//   3. resolve every Start Time still holding a transaction id using
//      that map (crash before the outcome record = aborted tombstone):
//      Range::Recover is the one resolver,
//   4. rebuild the primary index and the in-place Indirection column
//      from the Base RID backpointers of the tail records — neither is
//      logged nor checkpointed, exactly as the paper prescribes. Two
//      live rows with one key fail the restart with Corruption.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "checkpoint/serde.h"
#include "core/table.h"
#include "log/redo_log.h"

namespace lstore {

void FoldOutcome(CommitOutcomes* outcomes, TxnId txn, bool aborted,
                 Timestamp commit_time, Timestamp horizon) {
  if (aborted) {
    outcomes->erase(txn);
  } else if (commit_time <= horizon) {
    // Commits beyond a restore horizon never happened in the restored
    // timeline: their tail records resolve to aborted tombstones.
    (*outcomes)[txn] = commit_time;
  }
}

void ResumeClock(const CommitOutcomes& outcomes, Timestamp newest,
                 TransactionManager* txn_manager) {
  for (const auto& [txn, ct] : outcomes) {
    (void)txn;
    newest = std::max(newest, ct);
  }
  if (newest > 0) txn_manager->clock().AdvanceTo(newest + 1);
}

std::vector<ColumnId> Table::SecondaryColumns() const {
  SpinGuard g(secondary_latch_);
  std::vector<ColumnId> out;
  out.reserve(secondaries_.size());
  for (const auto& s : secondaries_) out.push_back(s.col);
  return out;
}

Status Table::ReplayAndRebuild(uint64_t watermark,
                               const CommitOutcomes* db_commits,
                               const std::vector<std::string>* log_paths,
                               Timestamp commit_horizon) {
  // Buffer-managed segments: recovery reads through pinned page
  // handles (an already-recovered table's merge thread can evict our
  // cold pages through the shared pool), so hold the epoch pin the
  // handle contract requires.
  EpochGuard guard(epochs_);
  // Seed the outcome map with the database commit log's verdicts:
  // cross-table transactions leave no commit record in this table's
  // log, and every participant recovers against the same map, so a
  // cross-table transaction replays on all of them or none.
  CommitOutcomes commits;
  if (db_commits != nullptr) commits = *db_commits;

  // --- step 2: apply the redo-log tail as the scan delivers it -------------
  // Each append lands with its raw Start Time (the writer's txn id, or
  // a pre-image snapshot's copied start time); step 3 resolves it once
  // the scan has collected every outcome.
  Status applied = Status::OK();
  TailRecord t;
  auto apply = [&](const LogRecord& rec, uint64_t lsn) {
    switch (rec.type) {
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        FoldOutcome(&commits, rec.txn_id, rec.type == LogRecordType::kAbort,
                    rec.commit_time, commit_horizon);
        break;
      case LogRecordType::kTailAppend:
      case LogRecordType::kInsertAppend: {
        // Records at or below the watermark are covered by the
        // checkpoint; replaying beyond it is idempotent even for
        // records the checkpoint also captured, and so is a record
        // that overlapping archive segments (a crash between seal and
        // truncate re-seals a longer prefix) deliver twice.
        if (lsn <= watermark || !applied.ok()) break;
        // A CRC-valid record can still name a range the directory
        // cannot hold, or anything Range::Apply refuses.
        Range* r = EnsureRange(rec.range_id);
        if (r == nullptr) {
          applied = Status::Corruption("redo record range overflow");
          break;
        }
        const bool insert = rec.type == LogRecordType::kInsertAppend;
        t.seq = rec.seq;
        t.backptr = rec.backptr;
        t.base_slot = rec.base_slot;
        t.encoding = rec.schema_encoding;
        t.start = rec.start_raw;
        t.cols = rec.mask;
        std::copy(rec.values.begin(), rec.values.end(), t.values);
        applied = r->Apply(insert ? TailKind::kInsert : TailKind::kUpdate, t);
        if (insert && applied.ok()) {
          AtomicMax(next_row_, rec.range_id * config_.range_size +
                                   rec.base_slot + 1);
        }
        break;
      }
      default:
        break;
    }
  };
  if (log_paths == nullptr && log_ != nullptr) {
    // The live log opens here, once: its open-time scan restores the
    // LSN counter, cuts a torn tail and delivers the records.
    LSTORE_RETURN_IF_ERROR(
        log_->Open(config_.log_path, /*truncate=*/false, apply));
  } else {
    // A point-in-time restore's stitched stream (sealed archive
    // segments in LSN order, then the live log: each one a
    // self-describing framed file), or the log of a table that does
    // not append to it, is only read.
    std::vector<std::string> own;
    if (log_paths == nullptr && !config_.log_path.empty()) {
      own.push_back(config_.log_path);
    }
    for (const std::string& path : log_paths != nullptr ? *log_paths : own) {
      LSTORE_RETURN_IF_ERROR(RedoLog::Replay(path, apply, nullptr));
    }
  }
  if (!applied.ok()) {
    // Append nothing after a log this table could not replay.
    if (log_ != nullptr) log_->Close();
    return applied;
  }

  // --- steps 3 and 4, one range at a time ---------------------------------
  // Resolve every raw Start Time against the outcome map, then rebuild
  // the primary index and the Indirection column (recovery option 2).
  // The index takes one batched insert per range, in slot order: keys
  // that lie on a line with their RIDs extend one line entry range
  // after range, and every other key's shard is latched and grown once.
  Timestamp max_time = 0;
  std::vector<Value> keys;
  std::vector<Rid> rids;
  std::unique_ptr<bool[]> ok(new bool[config_.range_size]);
  for (uint64_t id = 0; id < num_ranges(); ++id) {
    Range* r = GetRange(id);
    if (r == nullptr) continue;
    r->Recover(commits, &keys, &rids, &max_time);
    primary_.InsertBatch(keys.data(), rids.data(), keys.size(), ok.get());
    bool* end = ok.get() + keys.size();
    if (std::find(ok.get(), end, false) != end) {
      // Two live rows share a key: no run of the engine writes that.
      if (log_ != nullptr) log_->Close();
      return Status::Corruption("duplicate primary key in recovered rows");
    }
  }

  ResumeClock(commits, max_time, txn_manager_);
  return Status::OK();
}

Status Table::RecoverDurable(
    const std::string& checkpoint_file, uint64_t log_watermark,
    uint64_t checkpoint_checksum, const CommitOutcomes* db_commits,
    const std::vector<std::string>* log_paths, Timestamp commit_horizon) {
  if (!checkpoint_file.empty()) {
    LSTORE_RETURN_IF_ERROR(
        CheckpointIO::LoadTable(this, checkpoint_file, checkpoint_checksum));
  }
  return ReplayAndRebuild(log_watermark, db_commits, log_paths,
                          commit_horizon);
}

Status Table::RecoverFromLog() {
  if (config_.log_path.empty()) {
    return Status::InvalidArgument("no log path configured");
  }
  return RecoverDurable(/*checkpoint_file=*/"", /*log_watermark=*/0);
}

}  // namespace lstore
