// Restart recovery (Section 5.1.3, recovery option 2).
//
// Recovery runs in four steps over one redo stream, a Database's one
// log, shared by all of its tables:
//   1. load each table's latest checkpoint (lineage-consistent
//      snapshot of base segments, tail pages, and the historic store),
//   2. read the stream once: the live log opens (its one scan of the
//      segments past the checkpoint's watermark restores the LSN
//      counter, cuts a torn or corrupt final record, and delivers every
//      record), or a restore reads its chain of archived and live
//      segments. Each append beyond the checkpoint's LSN watermark goes
//      to the table its catalog id names, with its raw Start Time, as
//      it arrives; ids missing from the catalog belong to dropped
//      tables and are skipped. Every commit and abort record folds into
//      one outcome map. Nothing is resolved yet, since a record's
//      outcome may lie later in the log,
//   3. each table resolves every Start Time still holding a
//      transaction id using that map (crash before the outcome record =
//      aborted tombstone): Range::Recover is the one resolver,
//   4. each table rebuilds its primary index and in-place Indirection
//      column from the Base RID backpointers of the tail records —
//      neither is logged nor checkpointed, exactly as the paper
//      prescribes. Two live rows with one key fail the restart with
//      Corruption.
// Database::Recover runs step 1 per cataloged table, then these; it is
// the only recovery entry point, since a table is durable only as a
// table of a database directory.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

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

Status Table::ReplayLog(const LogTables& tables, uint64_t watermark,
                        Timestamp horizon, const LogReader& read,
                        CommitOutcomes* commits) {
  // Buffer-managed segments: replay reads through pinned page handles
  // (a table's merge tasks can evict cold pages through the shared
  // pool), so hold the epoch pin the handle contract requires.
  std::vector<EpochGuard> pins;
  pins.reserve(tables.size());
  for (const auto& entry : tables) pins.emplace_back(entry.second->epochs_);
  Status applied = Status::OK();
  uint64_t delivered = 0;
  TailRecord scratch;
  auto apply = [&](const LogRecord& rec, uint64_t lsn) {
    // Segments chain without overlap, so each LSN arrives once and in
    // order; the guard keeps any record delivered out of order (a
    // stream that repeats an LSN) from applying twice.
    if (lsn <= delivered || !applied.ok()) return;
    delivered = lsn;
    switch (rec.type) {
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        FoldOutcome(commits, rec.txn_id, rec.type == LogRecordType::kAbort,
                    rec.commit_time, horizon);
        break;
      case LogRecordType::kTailAppend:
      case LogRecordType::kInsertAppend: {
        // Records at or below the watermark are covered by the
        // checkpoint; replaying beyond it is idempotent even for
        // records the checkpoint also captured.
        auto it = tables.find(rec.table_id);
        if (lsn > watermark && it != tables.end()) {
          applied = it->second->ApplyLogged(rec, &scratch);
        }
        break;
      }
      default:
        break;
    }
  };
  LSTORE_RETURN_IF_ERROR(read(apply));
  return applied;
}

Status Table::ApplyLogged(const LogRecord& rec, TailRecord* t) {
  // A CRC-valid record can still name a range the directory cannot
  // hold, or anything Range::Apply refuses.
  Range* r = EnsureRange(rec.range_id);
  if (r == nullptr) return Status::Corruption("redo record range overflow");
  const bool insert = rec.type == LogRecordType::kInsertAppend;
  t->seq = rec.seq;
  t->backptr = rec.backptr;
  t->base_slot = rec.base_slot;
  t->encoding = rec.schema_encoding;
  t->start = rec.start_raw;
  t->cols = rec.mask;
  std::copy(rec.values.begin(), rec.values.end(), t->values);
  Status s = r->Apply(insert ? TailKind::kInsert : TailKind::kUpdate, *t);
  if (insert && s.ok()) {
    AtomicMax(next_row_,
              rec.range_id * config_.range_size + rec.base_slot + 1);
  }
  return s;
}

Status Table::ResolveAndRebuild(const CommitOutcomes& commits) {
  EpochGuard guard(epochs_);
  // Resolve every raw Start Time against the outcome map, then rebuild
  // the primary index and the Indirection column (recovery option 2),
  // one range at a time. The index takes one batched insert per range,
  // in slot order: keys that lie on a line with their RIDs extend one
  // line entry range after range, and every other key's shard is
  // latched and grown once.
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
      return Status::Corruption("duplicate primary key in recovered rows");
    }
  }
  ResumeClock(commits, max_time, txn_manager_);
  return Status::OK();
}

}  // namespace lstore
