// The single commit pipeline (Section 5.1.1 / 5.1.3).
//
// One code path serves single-table commits (Table::CommitTxn is a
// thin wrapper passing {this}) and cross-table transactions
// (Database::CommitTxn passes every registered table). The pipeline
// filters the actual participants out of the transaction's read and
// write sets, so a database-wide commit touches only the tables the
// transaction used:
//
//   1. acquire the commit time, enter pre-commit,
//   2. validate each read participant's share of the readset,
//   3. reach the durability point:
//        - one logged writer: a commit record in that table's log
//          (the existing fast path),
//        - several logged writers: payload records stay in the table
//          logs WITHOUT per-table commit records; ONE record in the
//          database commit log is the whole transaction's commit
//          point, so a crash can never split it across tables,
//      both flushed through the group-commit queue when the engine
//      has one, sharing fsyncs with concurrent committers,
//   4. flip the state in the shared manager — the in-memory commit
//      point,
//   5. stamp Start Time slots and retire the manager entry.

#ifndef LSTORE_CORE_COMMIT_PIPELINE_H_
#define LSTORE_CORE_COMMIT_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include <memory>

#include "common/status.h"
#include "log/commit_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "txn/transaction.h"

namespace lstore {

class Table;
class TransactionManager;

/// Group-commit stage: concurrent committers enqueue their durability
/// work; the first waiting request becomes the batch leader, which
/// flushes every distinct table log touched by the batch ONCE, appends
/// the batch's commit-log records, and flushes the commit log ONCE —
/// so N concurrent commits across T tables cost T+1 fsyncs, not N*(T+1).
/// A lone leader waits up to `window_us` for followers to join
/// (DurabilityOptions::group_commit_window_us).
class GroupCommitQueue {
 public:
  /// `registry` (optional) receives the stage metrics of every batch:
  /// per-request queue wait, the leader's table-log flush fan-out, and
  /// batch sizes (the commit-log flush is timed by the commit log's
  /// own lstore_commit_log_flush_ns).
  GroupCommitQueue(CommitLog* commit_log, uint64_t window_us, bool sync,
                   MetricsRegistry* registry = nullptr)
      : commit_log_(commit_log), window_us_(window_us), sync_(sync) {
    if (registry != nullptr) {
      queue_wait_ns_ = registry->GetHistogram(
          "lstore_commit_queue_wait_ns",
          "Group-commit queue wait before the batch leader ran (ns)");
      fanout_flush_ns_ = registry->GetHistogram(
          "lstore_commit_fanout_flush_ns",
          "Leader's table-log flush fan-out per batch (ns)");
      batch_size_ = registry->GetHistogram(
          "lstore_group_commit_batch_size", "Commits per group-commit batch");
      batches_total_ = registry->GetCounter(
          "lstore_group_commit_batches_total", "Group-commit batches led");
    }
  }

  /// Make `txn` durable: flush `writers`' logs (payloads, plus the
  /// per-table commit record a single-table commit already appended);
  /// when `cross`, additionally append + flush the one commit-log
  /// record that commits the transaction on every participant. The
  /// table-log flushes ALWAYS precede the commit-log flush, so a
  /// durable commit record implies durable payloads. Returns once the
  /// transaction's durability point is reached (or failed).
  Status Commit(Transaction* txn, Timestamp commit_time,
                const std::vector<Table*>& writers, bool cross);

  /// Append + flush ONE authoritative abort marker for a cross-table
  /// transaction whose commit-log flush failed: the commit record may
  /// or may not have reached the disk, and per-table abort records
  /// could themselves land on only a subset of participants — a single
  /// marker here decides the outcome for all of them at recovery
  /// (best effort: if this flush also fails and neither record
  /// persists, recovery aborts the transaction everywhere anyway).
  void AbortCross(TxnId txn_id);

  /// Registers the "group_commit" heartbeat: the leader marks itself
  /// busy for each batch's durability sequence, so a leader wedged in
  /// an fsync shows up as slow/stalled instead of merely idle.
  void RegisterHeartbeat(HealthRegistry* registry) {
    hb_ = registry->Register("group_commit");
  }

  /// Held by the leader for the whole durability sequence of a batch.
  /// The checkpoint quiesces through it: taking this mutex while
  /// recording log watermarks guarantees no commit is mid-flight
  /// between its table-log flushes and its commit-log flush.
  std::mutex& window_mu() { return window_mu_; }

  /// Number of leader-processed batches (tests: batches < commits
  /// proves sharing).
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  struct Request {
    std::vector<Table*> writers;
    CommitLogRecord record;  ///< prepared when `cross`
    bool cross = false;
    bool done = false;
    Status result;
    uint64_t enqueue_ns = 0;  ///< queue-wait stamp (0 = untraced build)
    /// Submitter's request trace id (obs/span.h), captured at Commit()
    /// entry: the batch leader records this request's gc_queue_wait /
    /// log_flush / commit_fsync spans on the submitter's behalf —
    /// durability work happens on the leader's thread, but latency
    /// belongs to the request's timeline. 0 = untraced.
    uint64_t trace_id = 0;
  };

  /// Leader body: runs the shared durability sequence for `batch`
  /// under window_mu_, filling each request's result.
  void ProcessBatch(const std::vector<Request*>& batch);

  CommitLog* commit_log_;
  const uint64_t window_us_;
  const bool sync_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request*> queue_;
  bool leader_active_ = false;
  std::mutex window_mu_;
  std::atomic<uint64_t> batches_{0};
  std::shared_ptr<Heartbeat> hb_;  ///< "group_commit" (null until wired)

  /// Registry handles (null when no registry was wired).
  Histogram* queue_wait_ns_ = nullptr;
  Histogram* fanout_flush_ns_ = nullptr;
  Histogram* batch_size_ = nullptr;
  Counter* batches_total_ = nullptr;
};

/// Commit `txn` across whichever of `tables` it actually read or
/// wrote. With several logged writers the commit-log record appended
/// via `group` is the single atomic durability point; `group` may be
/// null (standalone tables, in-memory databases), falling back to
/// per-table commit records flushed inline.
Status CommitAcrossTables(TransactionManager& tm, Transaction* txn,
                          const std::vector<Table*>& tables,
                          GroupCommitQueue* group = nullptr);

/// Abort `txn`: append abort records to write participants' logs and
/// tombstone the writeset (Section 5.1.3 — no physical removal).
/// `durable_abort` flushes the abort records — required only when the
/// durability step may already have flushed a commit record for this
/// transaction (replay treats the later abort as authoritative, so it
/// must not die in the buffer); ordinary aborts have no commit record
/// anywhere and replay aborts them regardless.
void AbortAcrossTables(TransactionManager& tm, Transaction* txn,
                       const std::vector<Table*>& tables,
                       bool durable_abort = false);

}  // namespace lstore

#endif  // LSTORE_CORE_COMMIT_PIPELINE_H_
