#include "core/commit_pipeline.h"

#include <algorithm>
#include <shared_mutex>

#include "common/inline_buffer.h"
#include "core/range.h"
#include "log/redo_log.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// The part a candidate engine plays in a transaction.
enum class Role : uint8_t { kNone, kReader, kWriter };

/// The role of each of the `n` `engines` in `txn`: a writer owns a
/// writeset entry (its reads validate too), a reader only readset
/// entries. Owners outside `engines` are ignored: they belong to
/// another engine sharing the manager, committed by that engine's own
/// pipeline invocation, or to a table dropped since.
void Classify(const Transaction& txn, EngineBase* const* engines, size_t n,
              Role* roles) {
  for (size_t i = 0; i < n; ++i) {
    auto owns = [e = engines[i]](const auto& set) {
      return std::any_of(set.begin(), set.end(),
                         [e](const auto& entry) { return entry.owner == e; });
    };
    roles[i] = owns(txn.writeset())  ? Role::kWriter
               : owns(txn.readset()) ? Role::kReader
                                     : Role::kNone;
  }
}

/// Where the pipeline counts a transaction: its first writer, else its
/// first reader. Tables of a database share one registry, so the
/// choice is cosmetic there.
EngineBase* Metered(EngineBase* const* engines, size_t n, const Role* roles) {
  EngineBase* reader = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kWriter) return engines[i];
    if (roles[i] == Role::kReader && reader == nullptr) reader = engines[i];
  }
  return reader;
}

/// Append a commit record to `log`; returns its LSN.
uint64_t AppendCommitRecord(RedoLog* log, const Transaction* txn,
                            Timestamp commit_time) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  rec.commit_time = commit_time;
  return log->Append(rec);
}

/// Append an abort record to `log`; `durable` syncs it (fsync under
/// `sync`). That matters ONLY when the durability step already
/// appended/synced a commit record for this transaction (per-table
/// record whose pipeline failed later) — replay treats the later abort
/// as authoritative, so it must not sit in the buffer when the process
/// dies. Ordinary aborts (user abort, validation failure) skip the
/// sync: with no commit record anywhere, replay aborts them anyway.
void WriteAbortRecord(RedoLog* log, const Transaction* txn, bool durable,
                      bool sync) {
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  const uint64_t lsn = log->Append(rec);
  if (durable) (void)log->Sync(lsn, sync);
}

/// The durability point of a transaction with `n` > 1 logged writers:
/// sync each participant log at its LSN, then append ONE commit-log
/// record and sync it. The gate is held shared from the participant
/// syncs through the append, the checkpoint's quiesce. On failure the
/// commit record may or may not be durable, so ONE abort marker in the
/// commit log decides the outcome for every participant: per-table
/// abort records could land on a subset of them and re-split the
/// transaction (best effort: if neither record persists, recovery
/// aborts it everywhere anyway).
Status CommitCross(CommitLog& commit_log, const Transaction* txn,
                   Timestamp commit_time, EngineBase* const* writers,
                   RedoLog* const* logs, size_t n, Histogram* fanout_ns) {
  // The tables of a database share its sync_commit.
  const bool sync = writers[0]->config().sync_commit;
  CommitLogRecord rec;
  rec.txn_id = txn->id();
  rec.commit_time = commit_time;
  Status s = Status::OK();
  uint64_t lsn = 0;
  {
    std::shared_lock<std::shared_mutex> gate(commit_log.gate());
    Stage fanout(fanout_ns, nullptr);
    for (size_t i = 0; i < n && s.ok(); ++i) {
      // last_lsn bounds this transaction's payload LSNs in that log (its
      // appends are in); a concurrent append raising it merely delays
      // commit-log truncation.
      const uint64_t at = logs[i]->last_lsn();
      rec.participants.push_back({writers[i]->name(), at});
      s = logs[i]->Sync(at, sync);
    }
    fanout.End();
    if (s.ok()) lsn = commit_log.Append(rec);
  }
  if (s.ok()) s = commit_log.Sync(lsn, sync);
  if (!s.ok()) {
    CommitLogRecord abort;
    abort.txn_id = txn->id();
    abort.aborted = true;
    (void)commit_log.Sync(commit_log.Append(abort), sync);
  }
  return s;
}

}  // namespace

Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n,
                    CommitLog* commit_log) {
  if (txn->finished()) return Status::InvalidArgument("already finished");
  InlineBuffer<Role, 16> roles(n);
  Classify(*txn, engines, n, roles.data());

  // 1. Acquire commit time and enter pre-commit (Section 5.1.1).
  Timestamp commit_time = tm.EnterPreCommit(txn);

  // 2. Validation (per isolation level) against every participant.
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kNone) continue;
    Status s = engines[i]->ValidateReads(txn, commit_time);
    if (!s.ok()) {
      if (const TableCounters* obs = engines[i]->counters()) {
        obs->validation_aborts->Increment();
      }
      AbortAcross(tm, txn, engines, n, /*durable_abort=*/false);
      return s;
    }
  }

  // 3. Durability point (Section 5.1.3). Read-only participants write
  // nothing: their logs carry no records of this transaction to
  // resolve at replay. Several logged writers commit through ONE
  // database commit-log record — all-or-nothing across tables; a
  // single one (or any without a commit log) through its own commit
  // record. Every log is synced through the group commit.
  EngineBase* metered = Metered(engines, n, roles.data());
  const TableCounters* obs = metered != nullptr ? metered->counters() : nullptr;
  InlineBuffer<EngineBase*, 16> logged(n);
  InlineBuffer<RedoLog*, 16> logs(n);
  size_t num_logged = 0;
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kWriter && engines[i]->redo_log() != nullptr) {
      logged[num_logged] = engines[i];
      logs[num_logged++] = engines[i]->redo_log();
    }
  }
  const bool cross = num_logged > 1 && commit_log != nullptr;
  Status ds = cross ? CommitCross(*commit_log, txn, commit_time, logged.data(),
                                  logs.data(), num_logged,
                                  obs != nullptr ? obs->commit_fanout_ns
                                                 : nullptr)
                    : Status::OK();
  for (size_t i = 0; !cross && i < num_logged && ds.ok(); ++i) {
    ds = logs[i]->Sync(AppendCommitRecord(logs[i], txn, commit_time),
                       logged[i]->config().sync_commit);
  }
  if (!ds.ok()) {
    // A per-table commit record may already be durable: the abort must
    // be durable to override it.
    AbortAcross(tm, txn, engines, n, /*durable_abort=*/true);
    return ds;
  }

  // 4. Publish: the state flip is the in-memory commit point for all
  // participants (readers that race see either the entry or the stamp).
  Stage publish(obs != nullptr ? obs->commit_publish_ns : nullptr, nullptr);
  tm.MarkCommitted(txn);

  // 5. Post-commit: stamp Start Time slots so the manager entry can
  // be retired.
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kWriter) engines[i]->StampWrites(txn, commit_time);
  }
  tm.Retire(txn->id());
  txn->set_finished();
  if (obs != nullptr) obs->commits->Add(1);
  return Status::OK();
}

void AbortAcross(TransactionManager& tm, Transaction* txn,
                 EngineBase* const* engines, size_t n, bool durable_abort) {
  if (txn->finished()) return;
  InlineBuffer<Role, 16> roles(n);
  Classify(*txn, engines, n, roles.data());
  tm.MarkAborted(txn);
  for (size_t i = 0; i < n; ++i) {
    RedoLog* log = engines[i]->redo_log();
    if (roles[i] == Role::kWriter && log != nullptr) {
      WriteAbortRecord(log, txn, durable_abort,
                       engines[i]->config().sync_commit);
    }
  }
  // Tombstone the writeset (Section 5.1.3: aborted tail records are
  // only marked invalid; space is reclaimed by compression).
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kWriter) {
      engines[i]->StampWrites(txn, kAbortedStamp);
    }
  }
  tm.Retire(txn->id());
  txn->set_finished();
  EngineBase* metered = Metered(engines, n, roles.data());
  const TableCounters* obs = metered != nullptr ? metered->counters() : nullptr;
  if (obs != nullptr) obs->aborts->Add(1);
}

}  // namespace lstore
