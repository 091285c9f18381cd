// Group commit + the database's one redo log (a commit record there is
// the single atomic commit point of every transaction, cross-table
// ones included): FramedLog::Sync sharing fsyncs across concurrent
// committers, appends proceeding while a sync runs (sync_pause.h parks
// the token holder between its write and its sync), one commit frame and one fsync per cross-table commit,
// torn-commit-frame fault injection (all-or-nothing recovery on every
// table), mixed single-/cross-table recovery equivalence, and log
// rolls at checkpoints, racing synced commits included.

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
#include "core/database.h"
#include "core/table.h"
#include "log/framed_log.h"
#include "log/redo_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sync_pause.h"

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

  /// Bytes of well-formed frames in the newest segment of the log in
  /// `dir`: what was written of it, without the zero tail of an open
  /// log.
  static uint64_t WrittenFrameBytes(const std::string& dir) {
    RedoLog::ReplayStats stats;
    EXPECT_TRUE(RedoLog::Replay(dir, [](const LogRecord&, uint64_t) {},
                                &stats)
                    .ok());
    EXPECT_TRUE(stats.clean_end);
    return stats.bytes_consumed;
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

  /// Number of records of `type` in the database's log (flushed first
  /// when `db` is open).
  size_t LogRecords(Database* db, LogRecordType type) const {
    if (db != nullptr) {
      EXPECT_TRUE(db->redo_log()->Flush(false).ok());
    }
    size_t n = 0;
    EXPECT_TRUE(RedoLog::Replay(dir_,
                                [&n, type](const LogRecord& rec) {
                                  if (rec.type == type) ++n;
                                })
                    .ok());
    return n;
  }

  /// The newest segment of the database's log: the file it appends to.
  std::string LogFile() const {
    std::vector<FramedLog::Segment> segments;
    EXPECT_TRUE(FramedLog::ListSegments(dir_, &segments).ok());
    return segments.empty() ? dir_ : segments.back().path;
  }

  /// Byte offset where the log file's last frame starts.
  size_t LastFrameStart() const {
    size_t start = 0;
    EXPECT_TRUE(FramedLog::ScanFile(
                    LogFile(), &RedoLog::ValidatePayload,
                    [&start](std::string_view, uint64_t, uint64_t,
                             size_t begin, size_t) { start = begin; },
                    nullptr)
                    .ok());
    return start;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// The single commit point: one frame, one fsync
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CrossTableCommitAppendsOneCommitFrameAndOneFsync) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  {
    auto db = OpenDb(opts);
    auto fsyncs = [&db] {
      return db->Metrics().CounterValue("lstore_redo_fsyncs_total");
    };
    const uint64_t before = fsyncs();
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    EXPECT_EQ(fsyncs() - before, 1u);
    EXPECT_EQ(LogRecords(db.get(), LogRecordType::kCommit), 1u);
    // A single-table commit takes one frame and one fsync too.
    Txn txn = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(txn, {2, 22, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(fsyncs() - before, 2u);
    EXPECT_EQ(LogRecords(db.get(), LogRecordType::kCommit), 2u);
  }
  // Both tables' payloads and the commit records share the one file:
  // the cross-table transaction's only commit point is its one frame.
  std::vector<std::pair<LogRecordType, uint64_t>> records;
  ASSERT_TRUE(RedoLog::Replay(dir_,
                              [&](const LogRecord& rec) {
                                records.emplace_back(
                                    rec.type,
                                    rec.type == LogRecordType::kCommit
                                        ? 0
                                        : rec.table_id);
                              })
                  .ok());
  EXPECT_EQ(records, (std::vector<std::pair<LogRecordType, uint64_t>>{
                         {LogRecordType::kInsertAppend, 0},
                         {LogRecordType::kInsertAppend, 1},
                         {LogRecordType::kCommit, 0},
                         {LogRecordType::kInsertAppend, 0},
                         {LogRecordType::kCommit, 0}}));

  // Everything recovers.
  auto db = OpenDb(opts, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  EXPECT_TRUE(Visible(db.get(), "a", 2));
}

// ---------------------------------------------------------------------------
// Fault injection: all-or-nothing across tables
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, TornFinalCommitFrameDropsTxnOnBothTables) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());  // survives
    ASSERT_TRUE(CrossInsert(db.get(), 2, 22).ok());  // torn below
  }
  // Crash while appending the second commit record: tear into the
  // log's final frame, its commit record. Both tables' payloads before
  // it are intact — only the commit point is gone.
  std::string log = LogFile();
  ASSERT_GT(FileBytes(log), 4u);
  ASSERT_EQ(0, ::truncate(log.c_str(), FileBytes(log) - 4));

  auto db = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_TRUE(Visible(db.get(), "a", 1));
  EXPECT_TRUE(Visible(db.get(), "b", 1001));
  // The torn transaction is aborted on BOTH tables, not split.
  EXPECT_FALSE(Visible(db.get(), "a", 2));
  EXPECT_FALSE(Visible(db.get(), "b", 1002));
}

TEST_F(GroupCommitTest, CrashBeforeTheCommitFrameRecoversAllOrNothing) {
  {
    auto db = OpenDb(DurabilityOptions{});
    ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
  }
  // Crash right before the commit frame: every payload of both tables
  // landed, the commit point didn't.
  std::string log = LogFile();
  ASSERT_EQ(0, ::truncate(log.c_str(), LastFrameStart()));
  EXPECT_EQ(LogRecords(nullptr, LogRecordType::kCommit), 0u);
  EXPECT_EQ(LogRecords(nullptr, LogRecordType::kInsertAppend), 2u);

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

// Sync returns at once for a record an earlier write-out covered: two
// appends, the later one synced, then the earlier one — one fsync.
TEST_F(GroupCommitTest, SyncCoveredByAnEarlierFsyncAddsNone) {
  std::filesystem::create_directories(dir_);
  MetricsRegistry registry;
  RedoLog log;
  log.set_metrics(FramedLogMetrics::In(&registry, "lstore_redo", "Redo-log",
                                       "log_flush"));
  ASSERT_TRUE(log.Open(dir_).ok());
  auto fsyncs = [&registry] {
    return registry.Snapshot().CounterValue("lstore_redo_fsyncs_total");
  };
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = kTxnIdTag | 1;
  rec.commit_time = 10;
  const uint64_t first = log.Append(rec);
  const uint64_t second = log.Append(rec);
  ASSERT_TRUE(log.Sync(second, /*fsync=*/true).ok());
  ASSERT_TRUE(log.Sync(first, /*fsync=*/true).ok());
  EXPECT_EQ(fsyncs(), 1u);

  // With fsync off, Sync writes the bytes but adds no fsync: the
  // appended frame reaches the file, which then holds the whole log.
  const uint64_t written = log.bytes();
  const uint64_t third = log.Append(rec);
  EXPECT_EQ(WrittenFrameBytes(dir_), written);
  ASSERT_TRUE(log.Sync(third, /*fsync=*/false).ok());
  EXPECT_GT(log.bytes(), written);
  EXPECT_EQ(WrittenFrameBytes(dir_), log.bytes());
  EXPECT_EQ(fsyncs(), 1u);
  // Written is not durable: an fsync'd Sync of it still fsyncs.
  ASSERT_TRUE(log.Sync(third, /*fsync=*/true).ok());
  EXPECT_EQ(fsyncs(), 2u);
}

// While the token holder syncs, appends proceed: a second and a third
// caller append and wait for the token, and the next holder's one write
// and sync releases both. Two fsyncs for three commits, and the first
// write's batch counts its holder alone.
TEST_F(GroupCommitTest, AppendsProceedDuringAnInFlightSync) {
  std::filesystem::create_directories(dir_);
  MetricsRegistry registry;
  RedoLog log;
  log.set_metrics(FramedLogMetrics::In(&registry, "lstore_redo", "Redo-log",
                                       "log_flush"));
  ASSERT_TRUE(log.Open(dir_).ok());
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = kTxnIdTag | 1;
  rec.commit_time = 10;

  const uint64_t first = log.Append(rec);
  test::SyncPause pause;
  Status holder_status;
  std::thread holder([&] { holder_status = log.Sync(first, true); });
  EXPECT_TRUE(pause.WaitParked(std::chrono::seconds(10)));

  // Two committers append during the paused sync, then sync.
  std::atomic<int> appended{0};
  std::atomic<int> synced{0};
  std::vector<std::thread> committers;
  for (int i = 0; i < 2; ++i) {
    committers.emplace_back([&] {
      const uint64_t lsn = log.Append(rec);
      appended.fetch_add(1);
      if (log.Sync(lsn, true).ok()) synced.fetch_add(1);
    });
  }
  // At a log whose sync holds the append mutex, the appends wait out
  // the pause: the check times out, and the release below frees them.
  EXPECT_TRUE(test::WaitUntil([&] { return appended.load() == 2; },
                              std::chrono::seconds(5)))
      << "Append waited for the in-flight sync";
  // Let both reach the token before the holder publishes.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(synced.load(), 0);  // the paused sync reached neither
  pause.Release();
  holder.join();
  for (auto& t : committers) t.join();
  ASSERT_TRUE(holder_status.ok()) << holder_status.ToString();
  EXPECT_EQ(synced.load(), 2);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("lstore_redo_fsyncs_total"), 2u);
  EXPECT_EQ(snap.CounterValue("lstore_group_commit_batches_total"), 2u);
  const auto* batch = snap.FindHistogram("lstore_group_commit_batch_size");
  ASSERT_NE(batch, nullptr);
  // The first write released its holder only (the waiters appended
  // after it), the second both: 1 + 2 syncs.
  EXPECT_EQ(batch->hist.count, 2u);
  EXPECT_EQ(batch->hist.sum, 3u);
}

// A roll swaps the log's file only holding the sync token: while a
// holder's sync is in flight, Roll waits, and an append made meanwhile
// lands in the segment it closes.
TEST_F(GroupCommitTest, RollWaitsForAnInFlightSync) {
  std::filesystem::create_directories(dir_);
  RedoLog log;
  ASSERT_TRUE(log.Open(dir_).ok());
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = kTxnIdTag | 1;
  rec.commit_time = 10;

  const uint64_t first = log.Append(rec);
  test::SyncPause pause;
  Status holder_status;
  std::thread holder([&] { holder_status = log.Sync(first, true); });
  EXPECT_TRUE(pause.WaitParked(std::chrono::seconds(10)));
  std::atomic<bool> rolled{false};
  Status roll_status;
  uint64_t watermark = 0;
  std::thread roller([&] {
    roll_status = log.Roll(&watermark);
    rolled.store(true);
  });
  const uint64_t second = log.Append(rec);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rolled.load()) << "the file was swapped under a sync";
  pause.Release();
  holder.join();
  roller.join();
  ASSERT_TRUE(holder_status.ok()) << holder_status.ToString();
  ASSERT_TRUE(roll_status.ok()) << roll_status.ToString();
  // The roll ran after the sync: the append made during it is in the
  // closed segment, and the next one starts past it.
  EXPECT_EQ(watermark, second);
  const uint64_t third = log.Append(rec);
  ASSERT_TRUE(log.Sync(third, true).ok());
  log.Close();

  std::vector<FramedLog::Segment> segments;
  ASSERT_TRUE(FramedLog::ListSegments(dir_, &segments).ok());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[1].lo, third);
  std::vector<uint64_t> lsns;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(dir_,
                              [&lsns](const LogRecord&, uint64_t lsn) {
                                lsns.push_back(lsn);
                              },
                              &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(lsns, (std::vector<uint64_t>{first, second, third}));
}

TEST_F(GroupCommitTest, ConcurrentCommittersShareFsyncs) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  auto db = OpenDb(opts);
  // Every commit-path fsync is the one log's.
  auto fsyncs = [&db] {
    return db->Metrics().CounterValue("lstore_redo_fsyncs_total");
  };
  auto batches = [&db] {
    return db->Metrics().CounterValue("lstore_group_commit_batches_total");
  };
  auto commit = [&db](int i, Value v) {
    Txn txn = db->Begin();
    std::vector<Value> row{0, v, 0};
    Status s = db->GetTable("a")->Update(txn, i, 0b010, row);
    if (s.ok()) s = db->GetTable("b")->Update(txn, i + 1000, 0b010, row);
    if (s.ok()) s = txn.Commit();
    return s;
  };

  // Load and update one row per thread in each table (these commits
  // also fsync; measure only around the concurrent phase), and learn
  // how many LSNs a later update commit appends (a record's first
  // update appends more).
  constexpr int kThreads = 8;
  uint64_t lsn = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(CrossInsert(db.get(), i, i).ok());
    ASSERT_TRUE(commit(i, 50).ok());
    lsn = db->redo_log()->last_lsn();
    ASSERT_TRUE(commit(i, 60).ok());
  }
  const uint64_t per_commit = db->redo_log()->last_lsn() - lsn;

  // The first committer's sync parks between its write and its fsync;
  // the other seven append meanwhile and wait for the token.
  uint64_t before_fsyncs = fsyncs();
  uint64_t before_batches = batches();
  lsn = db->redo_log()->last_lsn();
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  test::SyncPause pause;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      if (commit(i, 100 + i).ok()) ok.fetch_add(1);
    });
    if (i == 0) {
      EXPECT_TRUE(pause.WaitParked(std::chrono::seconds(10)));
    }
  }
  const bool all_appended = test::WaitUntil(
      [&] { return db->redo_log()->last_lsn() >= lsn + kThreads * per_commit; },
      std::chrono::seconds(10));
  pause.Release();
  for (auto& t : threads) t.join();
  EXPECT_TRUE(all_appended);
  ASSERT_EQ(ok.load(), kThreads);

  uint64_t delta_fsyncs = fsyncs() - before_fsyncs;
  uint64_t delta_batches = batches() - before_batches;
  // Unshared, 8 cross-table commits would sync the one log 8 times,
  // each with its own write and fsync. Here the seven that appended
  // during the first sync share the next write and fsync.
  EXPECT_GT(delta_fsyncs, 0u);
  EXPECT_LT(delta_fsyncs, 1u * kThreads);
  EXPECT_LT(delta_batches, 1u * kThreads);
  EXPECT_EQ(delta_fsyncs, 2u);

  // And the shared fsyncs really committed everyone.
  for (int i = 0; i < kThreads; ++i) {
    Txn txn = db->Begin();
    std::vector<Value> row;
    ASSERT_TRUE(db->GetTable("a")->Read(txn, i, 0b111, &row).ok());
    EXPECT_EQ(row[1], static_cast<Value>(100 + i));
    ASSERT_TRUE(txn.Commit().ok());
  }
}

// A traced commit whose records another caller's write covers still
// gets its write-path spans with real durations: the covering write's
// window is published to every caller it released. Two traced
// committers wait for the token while an untraced one's sync is
// paused; whichever takes it next writes both, so one of them is
// covered by the other's write, and each needs its spans.
TEST_F(GroupCommitTest,
       TracedCommitterCoveredByAnotherSyncGetsWritePathSpans) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  auto db = OpenDb(opts);
  auto counter = [&db](const char* name) {
    return db->Metrics().CounterValue(name);
  };
  // The LSNs one commit appends.
  uint64_t lsn = db->redo_log()->last_lsn();
  ASSERT_TRUE(CrossInsert(db.get(), 0, 0).ok());
  const uint64_t per_commit = db->redo_log()->last_lsn() - lsn;
  const uint64_t before_batches =
      counter("lstore_group_commit_batches_total");
  const uint64_t before_fsyncs = counter("lstore_redo_fsyncs_total");

  test::SyncPause pause;
  Status untraced_status;
  std::thread untraced(
      [&] { untraced_status = CrossInsert(db.get(), 1, 1); });
  EXPECT_TRUE(pause.WaitParked(std::chrono::seconds(10)));
  // Both traced commits append during the paused sync and wait for the
  // token: the next write covers both.
  lsn = db->redo_log()->last_lsn();
  const uint64_t ids[2] = {TraceContext::NewTraceId(),
                           TraceContext::NewTraceId()};
  Status traced_status[2];
  std::vector<std::thread> traced;
  for (int i = 0; i < 2; ++i) {
    traced.emplace_back([&, i] {
      TraceContext::Scope scope(ids[i]);
      traced_status[i] = CrossInsert(db.get(), 2 + i, 2 + i);
    });
  }
  EXPECT_TRUE(test::WaitUntil(
      [&] { return db->redo_log()->last_lsn() >= lsn + 2 * per_commit; },
      std::chrono::seconds(10)));
  // Let both reach the token: a caller that arrives after the next
  // write has started waits for no write of its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pause.Release();
  untraced.join();
  for (auto& t : traced) t.join();
  ASSERT_TRUE(untraced_status.ok()) << untraced_status.ToString();
  for (const Status& s : traced_status) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  // One write and one fsync of the one log served both traced commits
  // (the other write and fsync are the paused untraced commit's).
  EXPECT_EQ(counter("lstore_group_commit_batches_total") - before_batches,
            2u);
  EXPECT_EQ(counter("lstore_redo_fsyncs_total") - before_fsyncs, 2u);

  for (const uint64_t id : ids) {
    std::vector<TraceSpan> spans =
        FlightRecorder::Instance().SnapshotTrace(id);
    if (!kTraceEnabled) {
      EXPECT_TRUE(spans.empty());
      continue;
    }
    size_t queue_wait = 0, log_flush = 0, log_append = 0;
    for (const TraceSpan& s : spans) {
      const std::string name = s.name;
      if (name == "gc_queue_wait") ++queue_wait;
      if (name == "log_flush") ++log_flush;
      if (name == "log_append") ++log_append;
      if (name == "gc_queue_wait" || name == "log_flush") {
        EXPECT_GT(s.dur_ns, 0u) << name;
      }
    }
    EXPECT_EQ(queue_wait, 1u);  // one sync of the one log
    EXPECT_EQ(log_flush, 1u);
    EXPECT_GE(log_append, 1u);
  }
}

// A reopened database keeps counting redo-log fsyncs: recovery opens
// the instrumented log, not a bare one. Its tables take the fsync
// policy only through that log, from the options of THIS open (the
// first ran under the other setting): with sync_commit on each commit
// fsyncs exactly once, with it off never.
TEST_F(GroupCommitTest, ReopenedTablesCountRedoFsyncs) {
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync_commit on" : "sync_commit off");
    std::filesystem::remove_all(dir_);
    DurabilityOptions opts;
    opts.sync_commit = !sync;
    {
      auto db = OpenDb(opts);
      ASSERT_TRUE(CrossInsert(db.get(), 1, 11).ok());
    }
    opts.sync_commit = sync;
    auto db = OpenDb(opts);
    auto redo_fsyncs = [&db] {
      return db->Metrics().CounterValue("lstore_redo_fsyncs_total");
    };
    const uint64_t per_commit = sync ? 1 : 0;
    for (Value k = 2; k < 5; ++k) {
      uint64_t before = redo_fsyncs();
      ASSERT_TRUE(CrossInsert(db.get(), k, k * 11).ok());
      EXPECT_EQ(redo_fsyncs() - before, per_commit);
      before = redo_fsyncs();
      Txn txn = db->Begin();
      ASSERT_TRUE(db->GetTable("a")->Update(txn, k, 0b010, {0, k, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
      EXPECT_EQ(redo_fsyncs() - before, per_commit);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint integration: one log rolled and retired, LSNs stable
// ---------------------------------------------------------------------------

TEST_F(GroupCommitTest, CheckpointRollsTheOneLogAndKeepsLsnsStable) {
  auto db = OpenDb(DurabilityOptions{});
  for (Value k = 0; k < 4; ++k) {
    ASSERT_TRUE(CrossInsert(db.get(), k, k).ok());
  }
  EXPECT_EQ(LogRecords(db.get(), LogRecordType::kCommit), 4u);
  const uint64_t lsn_before = db->redo_log()->last_lsn();

  // The checkpoint covers every record, so the whole closed segment
  // goes, and the log continues in one segment named past it.
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<FramedLog::Segment> segments;
  ASSERT_TRUE(FramedLog::ListSegments(dir_, &segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].lo, lsn_before + 1);
  EXPECT_EQ(LogRecords(db.get(), LogRecordType::kCommit), 0u);
  EXPECT_EQ(LogRecords(db.get(), LogRecordType::kInsertAppend), 0u);
  EXPECT_EQ(db->redo_log()->last_lsn(), lsn_before);  // LSNs stable

  // New cross-table commits append afresh, numbered on from there, and
  // replay on restart.
  ASSERT_TRUE(CrossInsert(db.get(), 10, 1).ok());
  EXPECT_EQ(db->redo_log()->last_lsn(), lsn_before + 3);
  EXPECT_EQ(LogRecords(db.get(), LogRecordType::kCommit), 1u);
  db.reset();

  auto db2 = OpenDb(DurabilityOptions{}, /*create_tables=*/false);
  EXPECT_EQ(db2->redo_log()->last_lsn(), lsn_before + 3);
  for (Value k = 0; k < 4; ++k) {
    EXPECT_TRUE(Visible(db2.get(), "a", k));
    EXPECT_TRUE(Visible(db2.get(), "b", k + 1000));
  }
  EXPECT_TRUE(Visible(db2.get(), "a", 10));
  EXPECT_TRUE(Visible(db2.get(), "b", 1010));
}

TEST_F(GroupCommitTest, CheckpointDoesNotOrphanPostWatermarkCommits) {
  // Commits racing a checkpoint keep their records past its watermark
  // until the NEXT checkpoint covers them; a restart right after the
  // first checkpoint must see them on every table.
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

// Checkpoint rolls swap the log's file while synced commits are in
// flight: eight sync_commit committers run beside a checkpoint loop
// until it has rolled the log kCheckpoints times. Every acknowledged
// commit survives close and reopen on both tables, and LSNs are stable.
TEST_F(GroupCommitTest, CheckpointsRacingSyncedCommitsKeepEveryAck) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  auto db = OpenDb(opts);
  constexpr int kThreads = 8;
  constexpr int kCheckpoints = 20;
  constexpr Value kMaxPerThread = 250;
  std::atomic<int> checkpoints{0};
  std::vector<std::vector<Value>> acked(kThreads);
  std::atomic<int> failed{0};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (Value i = 0; i < kMaxPerThread &&
                        (i < 20 || checkpoints.load() < kCheckpoints);
           ++i) {
        const Value k = 10 + t * kMaxPerThread + i;
        if (CrossInsert(db.get(), k, k).ok()) {
          acked[t].push_back(k);
        } else {
          failed.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    Status s = db->Checkpoint();
    EXPECT_TRUE(s.ok()) << s.ToString();
    checkpoints.fetch_add(1);
  }
  for (auto& t : committers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(checkpoints.load(), 1);
  const uint64_t lsn = db->redo_log()->last_lsn();
  db.reset();

  auto db2 = OpenDb(opts, /*create_tables=*/false);
  EXPECT_EQ(db2->redo_log()->last_lsn(), lsn);
  for (int t = 0; t < kThreads; ++t) {
    for (const Value k : acked[t]) {
      EXPECT_TRUE(Visible(db2.get(), "a", k)) << k;
      EXPECT_TRUE(Visible(db2.get(), "b", k + 1000)) << k;
    }
  }
}

}  // namespace
}  // namespace lstore
