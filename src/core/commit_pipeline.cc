#include "core/commit_pipeline.h"

#include <algorithm>

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

}  // namespace

Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n) {
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

  // 3. Durability point (Section 5.1.3): ONE commit record, whatever
  // the number of tables, synced through the group commit. Read-only
  // participants write nothing: the log carries no records of theirs
  // to resolve at replay. The candidates are one engine or the tables
  // of one Database, so every writer that logs names the same log.
  RedoLog* log = nullptr;
  for (size_t i = 0; i < n && log == nullptr; ++i) {
    if (roles[i] == Role::kWriter) log = engines[i]->redo_log();
  }
  if (log != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = txn->id();
    rec.commit_time = commit_time;
    Status ds = log->SyncCommit(log->Append(rec));
    if (!ds.ok()) {
      // The commit record may already be durable: the abort must be
      // durable to override it.
      AbortAcross(tm, txn, engines, n, /*durable_abort=*/true);
      return ds;
    }
  }
  EngineBase* metered = Metered(engines, n, roles.data());
  const TableCounters* obs = metered != nullptr ? metered->counters() : nullptr;

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
  // One abort record in the writers' log. `durable_abort` syncs it:
  // that matters ONLY when the durability step already appended a
  // commit record for this transaction — replay treats the later
  // abort as authoritative, so it must not sit in the buffer when the
  // process dies. Ordinary aborts (user abort, validation failure)
  // skip the sync: with no commit record, replay aborts them anyway.
  RedoLog* log = nullptr;
  for (size_t i = 0; i < n && log == nullptr; ++i) {
    if (roles[i] == Role::kWriter) log = engines[i]->redo_log();
  }
  if (log != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = txn->id();
    const uint64_t lsn = log->Append(rec);
    if (durable_abort) (void)log->SyncCommit(lsn);
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
