// Group commit + database commit log (the single atomic commit point
// for cross-table transactions): fsync sharing across concurrent
// committers, torn-commit-log fault injection (all-or-nothing
// recovery on every participant), mixed single-/cross-table recovery
// equivalence, and commit-log truncation at checkpoints.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_manager.h"
#include "core/commit_pipeline.h"
#include "core/database.h"
#include "core/table.h"
#include "log/commit_log.h"
#include "log/redo_log.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace lstore {
namespace {

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_gc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  static uint64_t FileBytes(const std::string& path) {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
  }

  /// Open a durable database with tables "a" and "b".
  std::unique_ptr<Database> OpenDb(const DurabilityOptions& opts,
                                   bool create_tables = true) {
    std::unique_ptr<Database> db;
    Status s = Database::Open(dir_, opts, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (create_tables && db->GetTable("a") == nullptr) {
      EXPECT_TRUE(db->CreateTable("a", Schema(3), SmallConfig()).ok());
      EXPECT_TRUE(db->CreateTable("b", Schema(3), SmallConfig()).ok());
    }
    return db;
  }

  /// One cross-table transaction: insert (k, v, 0) into "a" AND
  /// (k + 1000, v, 0) into "b".
  static Status CrossInsert(Database* db, Value k, Value v) {
    Txn txn = db->Begin();
    Table* a = db->GetTable("a");
    Table* b = db->GetTable("b");
    Status s = a->Insert(txn, {k, v, 0});
    if (s.ok()) s = b->Insert(txn, {k + 1000, v, 0});
    if (s.ok()) return txn.Commit();
    return s;
  }

  /// True iff `key` is visible in `table`.
  static bool Visible(Database* db, const std::string& table, Value key) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    Status s = db->GetTable(table)->Read(txn, key, 0b111, &row);
    (void)txn.Commit();
    return s.ok();
  }

  /// Number of records currently in the live commit log.
  static size_t CommitLogRecords(Database* db) {
    size_t n = 0;
    EXPECT_TRUE(db->commit_log()
                    ->Scan([&n](const CommitLogRecord&, uint64_t) { ++n; })
                    .ok());
    return n;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// CommitLog unit: framing, LSNs, torn-tail repair, truncation
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CommitLogRoundTripAndTruncation) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (uint64_t i = 0; i < 5; ++i) {
      CommitLogRecord rec;
      rec.txn_id = kTxnIdTag | (10 + i);
      rec.commit_time = 100 + i;
      rec.participants = {{"a", 7 + i}, {"b", 9 + i}};
      EXPECT_EQ(log.Append(rec), i + 1);
    }
    ASSERT_TRUE(log.Flush(false).ok());
    ASSERT_TRUE(log.TruncateTo(3).ok());
    CommitLogRecord rec;
    rec.txn_id = kTxnIdTag | 77;
    rec.commit_time = 200;
    rec.participants = {{"a", 20}};
    EXPECT_EQ(log.Append(rec), 6u);  // LSNs continue across truncation
    ASSERT_TRUE(log.Flush(false).ok());
  }
  std::vector<uint64_t> lsns;
  std::vector<Timestamp> times;
  CommitLog::ReplayStats stats;
  ASSERT_TRUE(CommitLog::Replay(
                  path,
                  [&](const CommitLogRecord& rec, uint64_t lsn) {
                    lsns.push_back(lsn);
                    times.push_back(rec.commit_time);
                    ASSERT_FALSE(rec.participants.empty());
                    EXPECT_EQ(rec.participants[0].table, "a");
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{4, 5, 6}));
  EXPECT_EQ(times, (std::vector<Timestamp>{103, 104, 200}));
  EXPECT_EQ(stats.base_lsn, 3u);
  EXPECT_TRUE(stats.clean_end);
}

TEST_F(GroupCommitTest, CommitLogAbortMarkerOverridesCommitRecord) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    CommitLogRecord commit;
    commit.txn_id = kTxnIdTag | 7;
    commit.commit_time = 42;
    commit.participants = {{"a", 1}, {"b", 2}};
    log.Append(commit);
    // The commit record's flush failed at runtime: the authoritative
    // abort marker follows it in the log.
    CommitLogRecord abort;
    abort.txn_id = kTxnIdTag | 7;
    abort.aborted = true;
    log.Append(abort);
    ASSERT_TRUE(log.Flush(false).ok());
  }
  std::vector<bool> aborted;
  ASSERT_TRUE(CommitLog::Replay(path,
                                [&](const CommitLogRecord& rec, uint64_t) {
                                  aborted.push_back(rec.aborted);
                                  EXPECT_EQ(rec.txn_id, kTxnIdTag | 7);
                                })
                  .ok());
  EXPECT_EQ(aborted, (std::vector<bool>{false, true}));
}

TEST_F(GroupCommitTest, CommitLogOpenRepairsTornTail) {
  std::filesystem::create_directories(dir_);
  std::string path = dir_ + "/clog";
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (uint64_t i = 0; i < 3; ++i) {
      CommitLogRecord rec;
      rec.txn_id = kTxnIdTag | (10 + i);
      rec.commit_time = 100 + i;
      rec.participants = {{"table_with_a_long_name", i}};
      log.Append(rec);
    }
    ASSERT_TRUE(log.Flush(false).ok());
  }
  // Crash mid-append: chop into the final frame.
  ASSERT_EQ(0, ::truncate(path.c_str(), FileBytes(path) - 3));
  {
    CommitLog log;
    ASSERT_TRUE(log.Open(path, false).ok());
    EXPECT_EQ(log.last_lsn(), 2u);  // torn record discarded
  }
  size_t n = 0;
  CommitLog::ReplayStats stats;
  ASSERT_TRUE(CommitLog::Replay(
                  path, [&n](const CommitLogRecord&, uint64_t) { ++n; },
                  &stats)
                  .ok());
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(stats.clean_end);
}

// ---------------------------------------------------------------------------
// The single commit point: record placement
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CrossTableCommitWritesOneCommitLogRecordAndNoPerTableOnes) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    // A single-table commit keeps its per-table commit record.
    Txn txn = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(txn, {2, 22, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(CommitLogRecords(db.get()), 1u);
  }
  // Inspect the closed logs: the cross-table transaction must have
  // NO commit record in either table log; its only commit point is
  // the database commit log.
  size_t a_commits = 0, b_commits = 0;
  ASSERT_TRUE(RedoLog::Replay(dir_ + "/a.log",
                              [&](const LogRecord& rec) {
                                if (rec.type == LogRecordType::kCommit) {
                                  ++a_commits;
                                }
                              })
                  .ok());
  ASSERT_TRUE(RedoLog::Replay(dir_ + "/b.log",
                              [&](const LogRecord& rec) {
                                if (rec.type == LogRecordType::kCommit) {
                                  ++b_commits;
                                }
                              })
                  .ok());
  EXPECT_EQ(a_commits, 1u);  // only the single-table commit
  EXPECT_EQ(b_commits, 0u);

  size_t clog_records = 0;
  ASSERT_TRUE(CommitLog::Replay(dir_ + "/COMMIT_LOG",
                                [&](const CommitLogRecord& rec, uint64_t) {
                                  ++clog_records;
                                  EXPECT_EQ(rec.participants.size(), 2u);
                                })
                  .ok());
  EXPECT_EQ(clog_records, 1u);

  // Everything recovers.
  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  EXPECT_TRUE(Visible(db.get(), "a", 2));
}

// ---------------------------------------------------------------------------
// Fault injection: all-or-nothing across participants
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, TornCommitLogTailDropsTxnOnEveryParticipant) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());  // survives
    ASSERT_TRUE(CrossInsert(db.get(), 2, 22).ok());  // torn below
  }
  // Crash while appending the second commit record: tear into the
  // commit log's final frame. Both participants' payloads are intact
  // in a.log / b.log — only the commit point is gone.
  std::string clog = dir_ + "/COMMIT_LOG";
  ASSERT_GT(FileBytes(clog), 4u);
  ASSERT_EQ(0, ::truncate(clog.c_str(), FileBytes(clog) - 4));

  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  // The torn transaction is aborted on BOTH tables, not split.
  EXPECT_FALSE(Visible(db.get(), "a", 2));
  EXPECT_FALSE(Visible(db.get(), "b", 1002));
}

TEST_F(GroupCommitTest, CrashBetweenParticipantWritesRecoversAllOrNothing) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
  }
  // Crash before the commit-log append: participant logs carry the
  // payloads (in any flushed subset), the commit log has no record.
  // Deleting the commit log wholesale models the strongest version:
  // every participant write landed, the commit point didn't.
  ASSERT_EQ(0, std::remove((dir_ + "/COMMIT_LOG").c_str()));

  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_FALSE(Visible(db.get(), "a", 1));
  EXPECT_FALSE(Visible(db.get(), "b", 1001));

  // The recovered database accepts and persists new transactions.
  ASSERT_TRUE(CrossInsert(db.get(), 3, 33).ok());
  EXPECT_TRUE(Visible(db.get(), "a", 3));
  EXPECT_TRUE(Visible(db.get(), "b", 1003));
}

// ---------------------------------------------------------------------------
// Mixed single-/cross-table recovery equivalence
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, MixedSingleAndCrossTableCommitsRecoverEquivalently) {
  {
    auto db = OpenDb(DurabilityOptions{});
    Table* a = db->GetTable("a");
    Table* b = db->GetTable("b");
    // Interleave: cross, single-on-a, cross, single-on-b, updates.
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(a->Insert(txn, {2, 22, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    ASSERT_TRUE(CrossInsert(db.get(), 3, 33).ok());
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(b->Insert(txn, {1002, 22, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    // A checkpoint mid-stream: later commits replay from log tails.
    ASSERT_TRUE(db->Checkpoint().ok());
    {
      Txn txn = db->Begin();
      std::vector<Value> row{0, 99, 0};
      ASSERT_TRUE(a->Update(txn, 1, 0b010, row).ok());
      ASSERT_TRUE(b->Update(txn, 1001, 0b010, row).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    ASSERT_TRUE(CrossInsert(db.get(), 4, 44).ok());
    // An aborted cross-table transaction leaves nothing.
    {
      Txn txn = db->Begin();
      ASSERT_TRUE(a->Insert(txn, {5, 55, 0}).ok());
      ASSERT_TRUE(b->Insert(txn, {1005, 55, 0}).ok());
      txn.Abort();
    }
  }
  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  Txn txn = db->Begin();
  std::vector<Value> row;
  ASSERT_TRUE(db->GetTable("a")->Read(txn, 1, 0b111, &row).ok());
  EXPECT_EQ(row[1], 99u);  // cross-table update replayed on a
  ASSERT_TRUE(db->GetTable("b")->Read(txn, 1001, 0b111, &row).ok());
  EXPECT_EQ(row[1], 99u);  // ... and on b
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(Visible(db.get(), "a", 2));
  EXPECT_TRUE(Visible(db.get(), "b", 1002));
  EXPECT_TRUE(Visible(db.get(), "a", 3));
  EXPECT_TRUE(Visible(db.get(), "b", 1003));
  EXPECT_TRUE(Visible(db.get(), "a", 4));
  EXPECT_TRUE(Visible(db.get(), "b", 1004));
  EXPECT_FALSE(Visible(db.get(), "a", 5));
  EXPECT_FALSE(Visible(db.get(), "b", 1005));
}

// ---------------------------------------------------------------------------
// Group commit: concurrent committers share fsyncs
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, ConcurrentCommittersShareFsyncs) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  opts.group_commit_window_us = 50000;  // 50 ms: let followers join
  auto db = OpenDb(opts);
  // Every commit-path fsync: the commit log's and every redo log's.
  auto fsyncs = [&db] {
    MetricsSnapshot s = db->Metrics();
    return s.CounterValue("lstore_redo_fsyncs_total") +
           s.CounterValue("lstore_commit_log_fsyncs_total");
  };

  // Load one row per thread in each table (these commits also fsync;
  // measure only around the concurrent phase).
  constexpr int kThreads = 8;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(CrossInsert(db.get(), i, i).ok());
  }

  uint64_t before_fsyncs = fsyncs();
  uint64_t before_batches = db->group_commit()->batches();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      Txn txn = db->Begin();
      std::vector<Value> row{0, static_cast<Value>(100 + i), 0};
      Status s = db->GetTable("a")->Update(txn, i, 0b010, row);
      if (s.ok()) s = db->GetTable("b")->Update(txn, i + 1000, 0b010, row);
      if (s.ok()) s = txn.Commit();
      if (s.ok()) ok.fetch_add(1);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();
  ASSERT_EQ(ok.load(), kThreads);

  uint64_t delta_fsyncs = fsyncs() - before_fsyncs;
  uint64_t delta_batches = db->group_commit()->batches() - before_batches;
  // Unshared, 8 cross-table commits over 2 tables would cost
  // 8 * (2 table fsyncs + 1 commit-log fsync) = 24. Group commit
  // must do better than one batch per committer.
  EXPECT_GT(delta_fsyncs, 0u);
  EXPECT_LT(delta_fsyncs, 3u * kThreads);
  EXPECT_LT(delta_batches, static_cast<uint64_t>(kThreads));

  // And the shared flushes really committed everyone.
  for (int i = 0; i < kThreads; ++i) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    ASSERT_TRUE(db->GetTable("a")->Read(txn, i, 0b111, &row).ok());
    EXPECT_EQ(row[1], static_cast<Value>(100 + i));
    ASSERT_TRUE(txn.Commit().ok());
  }
}

// A traced request that joins an UNTRACED leader's batch still gets its
// write-path spans with real durations: the batch windows are timed
// whenever tracing is compiled in, not only when the leader is traced.
TEST_F(GroupCommitTest, TracedFollowerOfUntracedLeaderGetsWritePathSpans) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  opts.group_commit_window_us = 50000;  // 50 ms: the leader parks
  auto db = OpenDb(opts);
  uint64_t before_batches = db->group_commit()->batches();

  std::atomic<bool> leader_started{false};
  Status leader_status;
  std::thread leader([&] {
    leader_started.store(true);
    leader_status = CrossInsert(db.get(), 1, 1);  // untraced
  });
  while (!leader_started.load()) std::this_thread::yield();
  // Well inside the leader's window: this commit joins its batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t id = TraceContext::NewTraceId();
  {
    TraceContext::Scope scope(id);
    ASSERT_TRUE(CrossInsert(db.get(), 2, 2).ok());
  }
  leader.join();
  ASSERT_TRUE(leader_status.ok()) << leader_status.ToString();
  EXPECT_EQ(db->group_commit()->batches() - before_batches, 1u);

  std::vector<TraceSpan> spans = FlightRecorder::Instance().SnapshotTrace(id);
  if (!kTraceEnabled) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  size_t queue_wait = 0, log_flush = 0, commit_fsync = 0, log_append = 0;
  for (const TraceSpan& s : spans) {
    const std::string name = s.name;
    if (name == "gc_queue_wait") ++queue_wait;
    if (name == "log_flush") ++log_flush;
    if (name == "commit_fsync") ++commit_fsync;
    if (name == "log_append") ++log_append;
    if (name == "gc_queue_wait" || name == "log_flush" ||
        name == "commit_fsync") {
      EXPECT_GT(s.dur_ns, 0u) << name;
    }
  }
  EXPECT_EQ(queue_wait, 1u);
  EXPECT_EQ(log_flush, 1u);
  EXPECT_EQ(commit_fsync, 1u);
  EXPECT_GE(log_append, 1u);
}

// A reopened database keeps counting redo-log fsyncs: recovery resumes
// logging on each table's instrumented log, not on a bare one.
TEST_F(GroupCommitTest, ReopenedTablesCountRedoFsyncs) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  {
    auto db = OpenDb(opts);
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
  }
  auto db = OpenDb(opts);
  auto redo_fsyncs = [&db] {
    return db->Metrics().CounterValue("lstore_redo_fsyncs_total");
  };
  uint64_t before = redo_fsyncs();
  ASSERT_TRUE(CrossInsert(db.get(), 2, 22).ok());
  EXPECT_GE(redo_fsyncs() - before, 2u);  // one per participant log
}

// ---------------------------------------------------------------------------
// Checkpoint integration: quiesce + commit-log truncation
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CheckpointTruncatesCoveredCommitLogPrefix) {
  auto db = OpenDb(DurabilityOptions{});
  for (Value k = 0; k < 4; ++k) {
    ASSERT_TRUE(CrossInsert(db.get(), k, k).ok());
  }
  EXPECT_EQ(CommitLogRecords(db.get()), 4u);
  uint64_t lsn_before = db->commit_log()->last_lsn();

  // The checkpoint covers every participant payload, so all four
  // records are dead weight and the covered prefix is dropped.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(CommitLogRecords(db.get()), 0u);
  EXPECT_EQ(db->commit_log()->last_lsn(), lsn_before);  // LSNs stable

  // New cross-table commits append afresh and replay on restart.
  ASSERT_TRUE(CrossInsert(db.get(), 10, 1).ok());
  EXPECT_EQ(CommitLogRecords(db.get()), 1u);
  db.reset();

  auto db2 = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  for (Value k = 0; k < 4; ++k) {
    EXPECT_TRUE(Visible(db2.get(), "a", k));
    EXPECT_TRUE(Visible(db2.get(), "b", k + 1000));
  }
  EXPECT_TRUE(Visible(db2.get(), "a", 10));
  EXPECT_TRUE(Visible(db2.get(), "b", 1010));
}

TEST_F(GroupCommitTest, CheckpointDoesNotOrphanPostQuiesceCommits) {
  // Commits racing a checkpoint keep their commit-log record until
  // the NEXT checkpoint covers them; a restart right after the first
  // checkpoint must see them on every participant.
  auto db = OpenDb(DurabilityOptions{});
  ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());

  std::atomic<bool> stop{false};
  std::atomic<Value> next_key{10};
  std::thread committer([&] {
    while (!stop.load()) {
      Value k = next_key.fetch_add(1);
      (void)CrossInsert(db.get(), k, k);
    }
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  stop.store(true);
  committer.join();
  Value last = next_key.load();
  db.reset();

  auto db2 = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db2.get(), "a", 1));
  // Every committed cross-table insert is visible on BOTH tables or
  // NEITHER — never split.
  for (Value k = 10; k < last; ++k) {
    EXPECT_EQ(Visible(db2.get(), "a", k), Visible(db2.get(), "b", k + 1000))
        << "split transaction at key " << k;
  }
}

}  // namespace
}  // namespace lstore
