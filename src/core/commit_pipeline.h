// The single commit pipeline (Section 5.1.1 / 5.1.3).
//
// One code path serves every commit and abort of all four engines:
// an engine's own sessions (EngineBase::CommitTxn, core/engine_core.h,
// passes the engine as the only candidate) and cross-table
// transactions (Database::CommitTxn passes every registered table).
// The pipeline filters the actual participants out of the
// transaction's read and write sets, so a database-wide commit touches
// only the tables the transaction used, and owners outside the
// candidates (a table dropped since) are ignored:
//
//   1. acquire the commit time, enter pre-commit,
//   2. validate each participant's share of the readset (empty for
//      the comparison engines),
//   3. reach the durability point (empty without a redo log, as for
//      the comparison engines and in-memory tables): ONE commit record
//      in the one log the writers share — a database's tables all
//      append to its one redo log — synced once under that log's fsync
//      policy through FramedLog::Sync, whatever the number of tables.
//      Sync is the group commit: a caller whose record an earlier
//      write already covered returns at once, so concurrent committers
//      share fsyncs,
//   4. flip the state in the shared manager — the in-memory commit
//      point,
//   5. stamp Start Time slots through each engine's one stamping loop
//      (unindexing aborted inserts) and retire the manager entry.
//
// The candidates never span two logs: a database passes only its own
// tables, and a session used on an engine outside its scope is refused
// at its first operation (CheckActive, txn/txn.h). An abort flips the
// state, appends one abort record to the shared log, and runs the same
// stamping loop with the aborted stamp.

#ifndef LSTORE_CORE_COMMIT_PIPELINE_H_
#define LSTORE_CORE_COMMIT_PIPELINE_H_

#include <cstddef>

#include "common/status.h"
#include "core/engine_core.h"
#include "txn/transaction.h"

namespace lstore {

/// Commit `txn` across whichever of the `n` `engines` it actually read
/// or wrote: one commit record in the log its logged writers share is
/// the single atomic durability point for all of them.
Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n);

/// Abort `txn`: append an abort record to the writers' log and
/// tombstone the writeset (Section 5.1.3 — no physical removal).
/// `durable_abort` syncs the abort record — required only when the
/// durability step may already have synced a commit record for this
/// transaction (replay treats the later abort as authoritative, so it
/// must not die in the buffer); ordinary aborts have no commit record
/// and replay aborts them regardless.
void AbortAcross(TransactionManager& tm, Transaction* txn,
                 EngineBase* const* engines, size_t n,
                 bool durable_abort = false);

}  // namespace lstore

#endif  // LSTORE_CORE_COMMIT_PIPELINE_H_
