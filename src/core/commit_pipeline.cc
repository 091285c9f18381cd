#include "core/commit_pipeline.h"

#include <algorithm>
#include <chrono>

#include "core/table.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// Tables of `tables` that appear as an owner in the readset
/// (`readers`) or writeset (`writers`). Owners outside `tables` are
/// ignored: they belong to another engine sharing the manager and are
/// committed by that engine's own pipeline invocation.
void Participants(const Transaction& txn, const std::vector<Table*>& tables,
                  std::vector<Table*>* readers, std::vector<Table*>* writers) {
  auto add = [](std::vector<Table*>* v, Table* t) {
    if (std::find(v->begin(), v->end(), t) == v->end()) v->push_back(t);
  };
  for (Table* t : tables) {
    for (const WriteEntry& w : txn.writeset()) {
      if (w.owner == t) {
        add(writers, t);
        add(readers, t);  // validation also covers own-write tables
        break;
      }
    }
  }
  for (Table* t : tables) {
    for (const ReadEntry& e : txn.readset()) {
      if (e.owner == t) {
        add(readers, t);
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// GroupCommitQueue
// ---------------------------------------------------------------------------

Status GroupCommitQueue::Commit(Transaction* txn, Timestamp commit_time,
                                const std::vector<Table*>& writers,
                                bool cross) {
  Request req;
  req.writers = writers;
  req.cross = cross;
  if (cross) {
    req.record.txn_id = txn->id();
    req.record.commit_time = commit_time;
    for (Table* t : writers) {
      // last_lsn is an upper bound on this transaction's payload LSNs
      // in that log (our appends are already in); a concurrent append
      // raising it merely delays commit-log truncation.
      req.record.participants.push_back(
          {t->name(), t->log_->last_lsn()});
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
    for (Table* t : r->writers) {
      if (std::find(logs.begin(), logs.end(), t->log_.get()) == logs.end()) {
        logs.push_back(t->log_.get());
      }
    }
  }
  std::vector<Status> log_status(logs.size(), Status::OK());
  for (size_t i = 0; i < logs.size(); ++i) {
    log_status[i] = logs[i]->Flush(sync_);
  }
  for (Request* r : batch) {
    for (Table* t : r->writers) {
      size_t i = std::find(logs.begin(), logs.end(), t->log_.get()) -
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

Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                          const std::vector<Table*>& tables,
                          GroupCommitQueue* group) {
  if (txn->finished()) return Status::InvalidArgument("already finished");
  std::vector<Table*> readers, writers;
  Participants(*txn, tables, &readers, &writers);

  // 1. Acquire commit time and enter pre-commit (Section 5.1.1).
  Timestamp commit_time = tm.EnterPreCommit(txn);

  // 2. Validation (per isolation level) against every participant.
  for (Table* t : readers) {
    Status s = t->ValidateReads(txn, commit_time);
    if (!s.ok()) {
      t->obs_.validation_aborts->Increment();
      AbortAcrossTables(tm, txn, writers);
      return s;
    }
  }

  // 3. Durability point (Section 5.1.3). Read-only participants write
  // nothing: their logs carry no records of this transaction to
  // resolve at replay. A single logged writer keeps its per-table
  // commit record (fast path); several logged writers commit through
  // ONE database commit-log record — all-or-nothing across tables —
  // and both flush through the group-commit queue when present.
  std::vector<Table*> logged;
  for (Table* t : writers) {
    if (t->log_ != nullptr) logged.push_back(t);
  }
  Status ds = Status::OK();
  if (group != nullptr && !logged.empty()) {
    bool cross = logged.size() > 1;
    if (!cross) logged[0]->AppendCommitRecord(txn, commit_time);
    ds = group->Commit(txn, commit_time, logged, cross);
  } else {
    for (Table* t : writers) {
      ds = t->WriteCommitRecord(txn, commit_time);
      if (!ds.ok()) break;
    }
  }
  if (!ds.ok()) {
    // A commit record may already be flushed (per-table) or appended
    // (commit log); the abort must be durable to override it. For a
    // cross-table transaction the authoritative abort is ONE marker in
    // the commit log — per-table abort records could land on a subset
    // of participants and re-split the transaction.
    if (group != nullptr && logged.size() > 1) group->AbortCross(txn->id());
    AbortAcrossTables(tm, txn, writers, /*durable_abort=*/true);
    return ds;
  }

  // 4. Publish: the state flip is the in-memory commit point for all
  // tables (readers that race see either the entry or the stamp).
  // Stage metrics land in the first participant's registry — tables of
  // a database share one registry, so the choice is cosmetic there.
  Table* metered = !writers.empty() ? writers[0]
                   : !readers.empty() ? readers[0]
                                      : nullptr;
  Stage publish(metered != nullptr ? metered->obs_.commit_publish_ns : nullptr,
                nullptr);
  tm.MarkCommitted(txn);

  // 5. Post-commit: stamp Start Time slots so the manager entry can
  // be retired.
  for (Table* t : writers) t->StampWrites(txn, commit_time);
  tm.Retire(txn->id());
  txn->set_finished();
  if (metered != nullptr) metered->obs_.commits->Add(1);
  return Status::OK();
}

void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                       const std::vector<Table*>& tables,
                       bool durable_abort) {
  if (txn->finished()) return;
  std::vector<Table*> readers, writers;
  Participants(*txn, tables, &readers, &writers);
  tm.MarkAborted(txn);
  for (Table* t : writers) t->WriteAbortRecord(txn, durable_abort);
  // Tombstone the writeset (Section 5.1.3: aborted tail records are
  // only marked invalid; space is reclaimed by compression).
  for (Table* t : writers) t->StampWrites(txn, kAbortedStamp);
  tm.Retire(txn->id());
  txn->set_finished();
  Table* metered = !writers.empty() ? writers[0]
                   : !readers.empty() ? readers[0]
                                      : nullptr;
  if (metered != nullptr) metered->obs_.aborts->Add(1);
}

}  // namespace lstore
