#include "core/commit_pipeline.h"

#include <algorithm>
#include <chrono>

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

/// Append a commit record to `log` WITHOUT flushing.
void AppendCommitRecord(RedoLog* log, const Transaction* txn,
                        Timestamp commit_time) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  rec.commit_time = commit_time;
  log->Append(rec);
}

/// Append an abort record to `log`; `flush` pushes it to the OS (fsync
/// under `sync`). The flush matters ONLY when the durability step
/// already appended/flushed a commit record for this transaction
/// (per-table record whose pipeline failed later, or a commit-log
/// record whose flush failed) — replay treats the later abort as
/// authoritative, so it must not sit in the buffer when the process
/// dies. Ordinary aborts (user abort, validation failure) skip the
/// flush: with no commit record anywhere, replay aborts them anyway.
void WriteAbortRecord(RedoLog* log, const Transaction* txn, bool flush,
                      bool sync) {
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  log->Append(rec);
  if (flush) (void)log->Flush(sync);
}

}  // namespace

// ---------------------------------------------------------------------------
// GroupCommitQueue
// ---------------------------------------------------------------------------

Status GroupCommitQueue::Commit(Transaction* txn, Timestamp commit_time,
                                EngineBase* const* writers, size_t n,
                                bool cross) {
  Request req;
  req.writers = writers;
  req.num_writers = n;
  req.cross = cross;
  if (cross) {
    req.record.txn_id = txn->id();
    req.record.commit_time = commit_time;
    for (size_t i = 0; i < n; ++i) {
      // last_lsn is an upper bound on this transaction's payload LSNs
      // in that log (our appends are already in); a concurrent append
      // raising it merely delays commit-log truncation.
      req.record.participants.push_back(
          {writers[i]->name(), writers[i]->redo_log()->last_lsn()});
    }
  }

  // Stamped for every request, not only when the histogram is wired:
  // the stamp also anchors the gc_queue_wait span of a traced request,
  // which the leader records on the submitter's behalf.
  req.enqueue_ns = Stage::Now();
  req.trace_id = TraceContext::Current();
  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&req);
  cv_.notify_all();
  for (;;) {
    cv_.wait(lk, [&] {
      return req.done || (!leader_active_ && queue_.front() == &req);
    });
    if (req.done) return req.result;

    // Become the leader. A lone leader waits up to the group-commit
    // window for followers; wake-ups from new arrivals keep it parked
    // until the deadline so the batch can grow.
    leader_active_ = true;
    if (window_us_ > 0 && queue_.size() == 1) {
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(window_us_);
      while (std::chrono::steady_clock::now() < deadline) {
        cv_.wait_until(lk, deadline);
      }
    }
    std::vector<Request*> batch(queue_.begin(), queue_.end());
    queue_.clear();
    lk.unlock();

    ProcessBatch(batch);

    lk.lock();
    for (Request* r : batch) r->done = true;
    leader_active_ = false;
    cv_.notify_all();
    return req.result;
  }
}

void GroupCommitQueue::ProcessBatch(const std::vector<Request*>& batch) {
  std::lock_guard<std::mutex> window(window_mu_);
  HeartbeatWorkScope work(hb_.get());
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (batches_total_ != nullptr) batches_total_->Add(1);
  if (batch_size_ != nullptr) batch_size_->Record(batch.size());
  // The batch windows below are timed whenever tracing is compiled in,
  // not only when the leader is traced: any follower may be, and its
  // spans need the real shared durations. Queue waits end where the
  // fan-out starts.
  const uint64_t fanout_t0 = Stage::Now();
  for (Request* r : batch) {
    Stage::Record(queue_wait_ns_, "gc_queue_wait", r->trace_id, r->enqueue_ns,
                  fanout_t0 - r->enqueue_ns);
  }

  // 1. Flush every distinct table log touched by the batch exactly
  // once: the payloads (and single-table commit records) of every
  // request become durable before any commit-log record can.
  std::vector<RedoLog*> logs;
  for (Request* r : batch) {
    for (size_t w = 0; w < r->num_writers; ++w) {
      RedoLog* log = r->writers[w]->redo_log();
      if (std::find(logs.begin(), logs.end(), log) == logs.end()) {
        logs.push_back(log);
      }
    }
  }
  std::vector<Status> log_status(logs.size(), Status::OK());
  for (size_t i = 0; i < logs.size(); ++i) {
    log_status[i] = logs[i]->Flush(sync_);
  }
  for (Request* r : batch) {
    for (size_t w = 0; w < r->num_writers; ++w) {
      size_t i = std::find(logs.begin(), logs.end(),
                           r->writers[w]->redo_log()) -
                 logs.begin();
      if (!log_status[i].ok()) {
        r->result = log_status[i];
        break;
      }
    }
  }
  // The fan-out is shared work: every traced request in the batch gets
  // the whole window on its timeline (that IS its wait).
  const uint64_t fanout_dur = Stage::Now() - fanout_t0;
  Stage::Record(fanout_flush_ns_, nullptr, 0, fanout_t0, fanout_dur);
  for (Request* r : batch) {
    Stage::Record(nullptr, "log_flush", r->trace_id, fanout_t0, fanout_dur);
  }

  // 2. One commit-log record per surviving cross-table request; the
  // single flush below is their shared durability point.
  bool any_cross = false;
  for (Request* r : batch) {
    if (r->cross && r->result.ok()) {
      commit_log_->Append(r->record);
      any_cross = true;
    }
  }
  if (any_cross) {
    // The flush's histogram is the commit log's own
    // (lstore_commit_log_flush_ns); the batch adds only the spans.
    const uint64_t flush_t0 = Stage::Now();
    Status cs = commit_log_->Flush(sync_);
    const uint64_t flush_dur = Stage::Now() - flush_t0;
    for (Request* r : batch) {
      if (r->cross && r->result.ok()) {
        Stage::Record(nullptr, "commit_fsync", r->trace_id, flush_t0,
                      flush_dur);
      }
    }
    if (!cs.ok()) {
      for (Request* r : batch) {
        if (r->cross && r->result.ok()) r->result = cs;
      }
    }
  }
}

void GroupCommitQueue::AbortCross(TxnId txn_id) {
  CommitLogRecord rec;
  rec.txn_id = txn_id;
  rec.aborted = true;
  commit_log_->Append(rec);
  (void)commit_log_->Flush(sync_);
}

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

Status CommitAcross(TransactionManager& tm, Transaction* txn,
                    EngineBase* const* engines, size_t n,
                    GroupCommitQueue* group) {
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
  // resolve at replay. A single logged writer keeps its per-table
  // commit record (fast path); several logged writers commit through
  // ONE database commit-log record — all-or-nothing across tables —
  // and both flush through the group-commit queue when present.
  InlineBuffer<EngineBase*, 16> logged(n);
  size_t num_logged = 0;
  for (size_t i = 0; i < n; ++i) {
    if (roles[i] == Role::kWriter && engines[i]->redo_log() != nullptr) {
      logged[num_logged++] = engines[i];
    }
  }
  Status ds = Status::OK();
  if (group != nullptr && num_logged > 0) {
    bool cross = num_logged > 1;
    if (!cross) AppendCommitRecord(logged[0]->redo_log(), txn, commit_time);
    ds = group->Commit(txn, commit_time, logged.data(), num_logged, cross);
  } else {
    for (size_t i = 0; i < num_logged && ds.ok(); ++i) {
      AppendCommitRecord(logged[i]->redo_log(), txn, commit_time);
      ds = logged[i]->redo_log()->Flush(logged[i]->config().sync_commit);
    }
  }
  if (!ds.ok()) {
    // A commit record may already be flushed (per-table) or appended
    // (commit log); the abort must be durable to override it. For a
    // cross-table transaction the authoritative abort is ONE marker in
    // the commit log — per-table abort records could land on a subset
    // of participants and re-split the transaction.
    if (group != nullptr && num_logged > 1) group->AbortCross(txn->id());
    AbortAcross(tm, txn, engines, n, /*durable_abort=*/true);
    return ds;
  }

  // 4. Publish: the state flip is the in-memory commit point for all
  // participants (readers that race see either the entry or the stamp).
  EngineBase* metered = Metered(engines, n, roles.data());
  const TableCounters* obs = metered != nullptr ? metered->counters() : nullptr;
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
