// The single commit pipeline (Section 5.1.1 / 5.1.3).
//
// One code path serves every commit and abort of all four engines:
// an engine's own sessions (EngineBase::CommitTxn, core/engine_core.h,
// passes the engine as the only candidate) and cross-table
// transactions (Database::CommitTxn passes every registered table and
// the database's commit log). The pipeline filters the actual
// participants out of the transaction's read and write sets, so a
// database-wide commit touches only the tables the transaction used,
// and owners outside the candidates (a table dropped since) are
// ignored:
//
//   1. acquire the commit time, enter pre-commit,
//   2. validate each participant's share of the readset (empty for
//      the comparison engines),
//   3. reach the durability point (empty without a redo log, as for
//      the comparison engines), one FramedLog::Sync per log touched:
//        - one logged writer: a commit record in that table's log,
//          synced at its LSN,
//        - several logged writers: payload records stay in the table
//          logs WITHOUT per-table commit records; each participant
//          log is synced at its LSN, then ONE record in the database
//          commit log is appended and synced — the whole transaction's
//          commit point, so a crash can never split it across tables,
//      Sync is the group commit: a caller whose records an earlier
//      write already covered returns at once, so concurrent
//      committers share fsyncs,
//   4. flip the state in the shared manager — the in-memory commit
//      point,
//   5. stamp Start Time slots through each engine's one stamping loop
//      (unindexing aborted inserts) and retire the manager entry.
//
// An abort flips the state, appends abort records to the written
// logs, and runs the same stamping loop with the aborted stamp.

#ifndef LSTORE_CORE_COMMIT_PIPELINE_H_
#define LSTORE_CORE_COMMIT_PIPELINE_H_

#include <cstddef>

#include "common/status.h"
#include "core/engine_core.h"
#include "log/commit_log.h"
#include "txn/transaction.h"

namespace lstore {

/// Commit `txn` across whichever of the `n` `engines` it actually read
/// or wrote. With several logged writers the record appended to
/// `commit_log` is the single atomic durability point; without a
/// commit log (standalone engines, in-memory databases) every logged
/// writer keeps its own commit record.
Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n,
                    CommitLog* commit_log = nullptr);

/// Abort `txn`: append abort records to write participants' logs and
/// tombstone the writeset (Section 5.1.3 — no physical removal).
/// `durable_abort` syncs the abort records — required only when the
/// durability step may already have synced a commit record for this
/// transaction (replay treats the later abort as authoritative, so it
/// must not die in the buffer); ordinary aborts have no commit record
/// anywhere and replay aborts them regardless.
void AbortAcross(TransactionManager& tm, Transaction* txn,
                 EngineBase* const* engines, size_t n,
                 bool durable_abort = false);

}  // namespace lstore

#endif  // LSTORE_CORE_COMMIT_PIPELINE_H_
