// Batched point operations (MultiRead / InsertBatch / UpdateBatch)
// and RAII session semantics: amortized index probes, ONE redo-log
// frame per batch (verified at the frame level and through recovery),
// auto-abort on scope exit, and the unified commit pipeline.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "core/database.h"
#include "core/query.h"
#include "core/row_table.h"
#include "core/table.h"
#include "log/redo_log.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

// A test still running after this many seconds ends the binary
// (SIGALRM) at once instead of at ctest's timeout: a Start Time left
// holding a retired transaction's id makes its readers spin
// (TransactionManager::ResolveTxnId), so that defect shows as a hang.
constexpr unsigned kTestDeadlineS = 60;

class TestDeadline : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    alarm(kTestDeadlineS);
  }
  void OnTestEnd(const ::testing::TestInfo&) override { alarm(0); }
};

[[maybe_unused]] const bool kTestDeadlineSet = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new TestDeadline);
  return true;
}();

TableConfig SmallConfig() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 1u << 30;
  cfg.enable_merge_thread = false;
  return cfg;
}

// A fresh durable directory under the test temp dir.
std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Open (or restart) the durable database at `dir` holding one table,
// "b" (Schema(3), SmallConfig), created on the directory's first open.
Table& OpenOneTable(const std::string& dir, std::unique_ptr<Database>* db) {
  db->reset();
  Status s = Database::Open(dir, db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if ((*db)->GetTable("b") == nullptr) {
    EXPECT_TRUE((*db)->CreateTable("b", Schema(3), SmallConfig()).ok());
  }
  return *(*db)->GetTable("b");
}

// Physical frames in the log segment file at `path`: [len][payload][crc32c].
size_t FramesIn(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return 0;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  std::fclose(f);
  size_t frames = 0, pos = 0;
  while (pos < data.size()) {
    uint64_t len = 0;
    if (!GetVarint64(data, &pos, &len)) {
      ADD_FAILURE() << "torn frame length at byte " << pos;
      break;
    }
    pos += len + sizeof(uint32_t);  // payload + checksum
    ++frames;
  }
  return frames;
}

class BatchTest : public ::testing::Test {
 protected:
  BatchTest() : table_("b", Schema(3), SmallConfig()) {
    Txn txn = table_.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < 100; ++k) rows.push_back({k, k * 10, 7});
    EXPECT_TRUE(table_.InsertBatch(txn, rows).ok());
    EXPECT_TRUE(txn.Commit().ok());
  }

  Table table_;
};

TEST_F(BatchTest, MultiReadReturnsEveryRow) {
  Txn txn = table_.Begin();
  std::vector<Value> keys = {5, 99, 0, 42};
  std::vector<std::vector<Value>> rows;
  std::vector<Status> statuses;
  ASSERT_TRUE(table_.MultiRead(txn, keys, 0b011, &rows, &statuses).ok());
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok());
    EXPECT_EQ(rows[i][0], keys[i]);
    EXPECT_EQ(rows[i][1], keys[i] * 10);
  }
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(BatchTest, MultiReadReportsMissesIndividually) {
  Txn txn = table_.Begin();
  std::vector<std::vector<Value>> rows;
  std::vector<Status> statuses;
  Status s = table_.MultiRead(txn, {50, 777, 51}, 0b010, &rows, &statuses);
  EXPECT_TRUE(s.IsNotFound());  // first error surfaces
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());  // reads continue past the miss
  EXPECT_TRUE(rows[1].empty());
  EXPECT_EQ(rows[2][1], 510u);
}

TEST_F(BatchTest, UpdateBatchAppliesAllRows) {
  Txn txn = table_.Begin();
  std::vector<Value> keys;
  std::vector<std::vector<Value>> rows;
  for (Value k = 10; k < 20; ++k) {
    keys.push_back(k);
    rows.push_back({0, k * 1000, 0});
  }
  ASSERT_TRUE(table_.UpdateBatch(txn, keys, 0b010, rows).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Txn check = table_.Begin();
  std::vector<std::vector<Value>> out;
  ASSERT_TRUE(table_.MultiRead(check, keys, 0b010, &out).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i][1], keys[i] * 1000);
  }
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(BatchTest, UpdateBatchValidatesMaskOnce) {
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.UpdateBatch(txn, {1}, 0b001, {{9, 9, 9}})
                  .IsInvalidArgument());  // key column
  EXPECT_TRUE(
      table_.UpdateBatch(txn, {1, 2}, 0b010, {{0, 1, 0}})
          .IsInvalidArgument());  // keys/rows count mismatch
  EXPECT_TRUE(table_.UpdateBatch(txn, {1}, 0b010, {{0, 1}})
                  .IsInvalidArgument());  // short row, masked col OOB
  EXPECT_TRUE(
      table_.Update(txn, 1, 0b010, {0}).IsInvalidArgument());  // same, single
}

TEST_F(BatchTest, DeleteBatchRemovesAllRows) {
  Txn txn = table_.Begin();
  std::vector<Value> keys;
  for (Value k = 30; k < 45; ++k) keys.push_back(k);
  ASSERT_TRUE(table_.DeleteBatch(txn, keys).ok());
  // Deleted rows vanish for the deleter immediately...
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(txn, 31, 0b010, &out).IsNotFound());
  ASSERT_TRUE(txn.Commit().ok());
  // ...and for everyone after commit; the rest of the table survives.
  Txn check = table_.Begin();
  std::vector<std::vector<Value>> rows;
  std::vector<Status> statuses;
  Status s = table_.MultiRead(check, keys, 0b010, &rows, &statuses);
  EXPECT_TRUE(s.IsNotFound());
  for (const Status& st : statuses) EXPECT_TRUE(st.IsNotFound());
  uint64_t count = 0;
  ASSERT_TRUE(table_.NewQuery().Count(&count).ok());
  EXPECT_EQ(count, 100u - keys.size());
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(BatchTest, DeleteBatchStopsAtMissingKey) {
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.DeleteBatch(txn, {50, 51, 777, 52}).IsNotFound());
  ASSERT_TRUE(txn.Commit().ok());
  // Keys before the failure committed as deletes; 52 survived.
  Txn check = table_.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(check, 50, 0b010, &out).IsNotFound());
  EXPECT_TRUE(table_.Read(check, 51, 0b010, &out).IsNotFound());
  EXPECT_TRUE(table_.Read(check, 52, 0b010, &out).ok());
  ASSERT_TRUE(check.Commit().ok());
}

TEST(BatchLogTest, DeleteBatchProducesOneFrameAndReplays) {
  const std::string dir = FreshDir("lstore_delete_batch_log_test");
  std::unique_ptr<Database> db;
  {
    Table& table = OpenOneTable(dir, &db);
    Txn load = table.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < 20; ++k) rows.push_back({k, k + 1, 0});
    ASSERT_TRUE(table.InsertBatch(load, rows).ok());
    ASSERT_TRUE(load.Commit().ok());
    Txn txn = table.Begin();
    ASSERT_TRUE(table.DeleteBatch(txn, {0, 1, 2, 3, 4}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(table.metrics()->GetCounter("lstore_deletes_total")->value(),
              5u);
  }
  db.reset();
  // Physical framing: insert batch + commit + delete batch + commit =
  // exactly FOUR frames (one latch/log envelope per batch).
  EXPECT_EQ(FramesIn(FramedLog::SegmentPath(dir, 1)), 4u);
  // A restart replays the batched deletes.
  Table& recovered = OpenOneTable(dir, &db);
  uint64_t count = 0;
  ASSERT_TRUE(recovered.NewQuery().Count(&count).ok());
  EXPECT_EQ(count, 15u);
  std::vector<Value> out;
  Txn check = recovered.Begin();
  EXPECT_TRUE(recovered.Read(check, 3, 0b010, &out).IsNotFound());
  EXPECT_TRUE(recovered.Read(check, 5, 0b010, &out).ok());
  ASSERT_TRUE(check.Commit().ok());
  db.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(BatchTest, ForeignHostSessionsAreRejected) {
  Table other("other", Schema(3), SmallConfig());
  Txn foreign = other.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(foreign, 1, 0b010, &out).IsInvalidArgument());
  EXPECT_TRUE(table_.Insert(foreign, {900, 1, 2}).IsInvalidArgument());
  // Database-begun sessions remain valid on member tables (the scope
  // check allows the owning database as host).
  Database db;
  ASSERT_TRUE(db.CreateTable("m", Schema(3), SmallConfig()).ok());
  Txn scoped = db.Begin();
  EXPECT_TRUE(db.GetTable("m")->Insert(scoped, {1, 2, 3}).ok());
  ASSERT_TRUE(scoped.Commit().ok());
}

// Two durable databases, two redo logs: a session begun on A is refused
// by every write op on a table of B before anything is logged, so no
// commit ever spans two logs. Both logs keep their lengths (appended
// bytes: an open log's file also holds a zero tail), and A's own write
// then commits.
TEST(SessionTest, SessionOfOneDurableDatabaseIsRefusedByAnother) {
  const std::string dir_a = FreshDir("lstore_foreign_db_a");
  const std::string dir_b = FreshDir("lstore_foreign_db_b");
  std::unique_ptr<Database> a, b;
  Table& ta = OpenOneTable(dir_a, &a);
  Table& tb = OpenOneTable(dir_b, &b);
  {
    Txn load = b->Begin();
    ASSERT_TRUE(tb.InsertBatch(load, {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}).ok());
    ASSERT_TRUE(load.Commit().ok());
  }
  const uint64_t size_a = a->redo_log()->bytes();
  const uint64_t size_b = b->redo_log()->bytes();

  Txn txn = a->Begin();
  EXPECT_TRUE(tb.Insert(txn, {10, 1, 1}).IsInvalidArgument());
  EXPECT_TRUE(tb.InsertBatch(txn, {{11, 1, 1}}).IsInvalidArgument());
  EXPECT_TRUE(tb.Update(txn, 1, 0b010, {0, 9, 0}).IsInvalidArgument());
  EXPECT_TRUE(
      tb.UpdateBatch(txn, {2}, 0b010, {{0, 9, 0}}).IsInvalidArgument());
  EXPECT_TRUE(tb.Delete(txn, 1).IsInvalidArgument());
  EXPECT_TRUE(tb.DeleteBatch(txn, {2, 3}).IsInvalidArgument());
  EXPECT_EQ(a->redo_log()->bytes(), size_a);
  EXPECT_EQ(b->redo_log()->bytes(), size_b);

  ASSERT_TRUE(ta.Insert(txn, {10, 1, 1}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  uint64_t rows_b = 0;
  ASSERT_TRUE(tb.NewQuery().Count(&rows_b).ok());
  EXPECT_EQ(rows_b, 3u);
  a.reset();
  b.reset();
  EXPECT_EQ(std::filesystem::file_size(FramedLog::SegmentPath(dir_b, 1)),
            size_b);
  EXPECT_GT(std::filesystem::file_size(FramedLog::SegmentPath(dir_a, 1)),
            size_a);
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST_F(BatchTest, BatchAbortTombstonesEverything) {
  // The inserts span five 64-slot ranges and many 16-slot tail pages.
  std::vector<Value> inserted;
  std::vector<std::vector<Value>> insert_rows;
  for (Value k = 1000; k < 1300; ++k) {
    inserted.push_back(k);
    insert_rows.push_back({k, 1, 1});
  }
  {
    Txn txn = table_.Begin();
    std::vector<Value> keys;
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < 30; ++k) {
      keys.push_back(k);
      rows.push_back({0, 424242, 0});
    }
    ASSERT_TRUE(table_.UpdateBatch(txn, keys, 0b010, rows).ok());
    ASSERT_TRUE(table_.InsertBatch(txn, insert_rows).ok());
    ASSERT_TRUE(table_.Insert(txn, {2000, 1, 1}).ok());
    // Session dies without commit: auto-abort.
  }
  uint64_t sum = 0, rows = 0;
  ASSERT_TRUE(table_.NewQuery().Sum(1, &sum, &rows).ok());
  EXPECT_EQ(rows, 100u);  // inserts rolled back (index too)
  uint64_t expect = 0;
  for (Value k = 0; k < 100; ++k) expect += k * 10;
  EXPECT_EQ(sum, expect);  // updates tombstoned
  Txn txn = table_.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(txn, 2000, 0b001, &out).IsNotFound());
  std::vector<std::vector<Value>> got;
  std::vector<Status> statuses;
  EXPECT_TRUE(
      table_.MultiRead(txn, inserted, 0b010, &got, &statuses).IsNotFound());
  for (const Status& st : statuses) EXPECT_TRUE(st.IsNotFound());
  // No index entry is left behind: the same keys insert again.
  ASSERT_TRUE(table_.InsertBatch(txn, insert_rows).ok());
  ASSERT_TRUE(table_.Insert(txn, {2000, 1, 1}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(table_.NewQuery().Sum(1, &sum, &rows).ok());
  EXPECT_EQ(rows, 401u);
  EXPECT_EQ(sum, expect + 301);
}

// --- the insert path ---------------------------------------------------------
// Insert and InsertBatch share one routine. These cases pin its prefix
// semantics at every failure position, across tail-page and range
// boundaries, with a secondary index, and under concurrency.

/// Visible rows and the sum of column 1 in the latest snapshot.
std::pair<uint64_t, uint64_t> CountAndSum(Table& t) {
  uint64_t sum = 0, rows = 0;
  EXPECT_TRUE(t.NewQuery().Sum(1, &sum, &rows).ok());
  return {rows, sum};
}

TEST_F(BatchTest, InsertBatchKeepsThePrefixBeforeTheFailingRow) {
  // The batch fails at a key already in the table (first, middle and
  // last row), at a key repeated within the batch, and at a bad-arity
  // row. Rows before the failure commit with the session; rows after
  // it leave neither a visible row nor an index entry.
  struct Case {
    std::vector<std::vector<Value>> rows;
    size_t failing_row;
    bool bad_arity;  ///< InvalidArgument rather than AlreadyExists
  };
  const Case cases[] = {
      {{{5, 1, 1}, {200, 2, 2}, {201, 3, 3}}, 0, false},
      {{{210, 1, 1}, {5, 2, 2}, {211, 3, 3}}, 1, false},
      {{{220, 1, 1}, {221, 2, 2}, {99, 3, 3}}, 2, false},
      {{{230, 1, 1}, {231, 2, 2}, {230, 3, 3}, {232, 4, 4}}, 2, false},
      {{{240, 1, 1}, {241, 2}, {242, 3, 3}}, 1, true},
  };
  std::pair<uint64_t, uint64_t> expected = CountAndSum(table_);
  for (const Case& c : cases) {
    Txn txn = table_.Begin();
    Status s = table_.InsertBatch(txn, c.rows);
    EXPECT_TRUE(c.bad_arity ? s.IsInvalidArgument() : s.IsAlreadyExists());
    ASSERT_TRUE(txn.Commit().ok());
    Txn again = table_.Begin();
    for (size_t i = 0; i < c.rows.size(); ++i) {
      if (i == c.failing_row) continue;
      std::vector<Value> out;
      Status r = table_.Read(again, c.rows[i][0], 0b010, &out);
      if (i < c.failing_row) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(out[1], c.rows[i][1]);
      } else {
        EXPECT_TRUE(r.IsNotFound());
        EXPECT_TRUE(table_.Insert(again, c.rows[i]).ok());
      }
      ++expected.first;
      expected.second += c.rows[i][1];
    }
    ASSERT_TRUE(again.Commit().ok());
    EXPECT_EQ(CountAndSum(table_), expected);
  }
}

TEST(InsertPathTest, BatchesCrossTailPagesAndRanges) {
  // Default geometry: 512-slot tail pages, 4096-slot ranges.
  TableConfig cfg;
  cfg.enable_merge_thread = false;
  Table t("p", Schema(3), cfg);
  auto rows_for = [](Value first, Value count) {
    std::vector<std::vector<Value>> rows;
    for (Value k = first; k < first + count; ++k) {
      rows.push_back({k, k * 3, k % 5});
    }
    return rows;
  };
  auto insert = [&](const std::vector<std::vector<Value>>& rows) {
    Txn txn = t.Begin();
    Status s = t.InsertBatch(txn, rows);
    EXPECT_TRUE(txn.Commit().ok());
    return s;
  };
  ASSERT_TRUE(insert(rows_for(0, 500)).ok());
  // RIDs 500..4199: seven page boundaries and the range boundary.
  ASSERT_TRUE(insert(rows_for(500, 3700)).ok());
  // RIDs 4200..12199, failing at row 100: the 7900 burned slots
  // straddle pages and the next range boundary.
  std::vector<std::vector<Value>> failing = rows_for(4200, 8000);
  failing[100][0] = 7;
  EXPECT_TRUE(insert(failing).IsAlreadyExists());
  EXPECT_EQ(t.num_rows(), 12200u);
  // Lands past the burned slots.
  ASSERT_TRUE(insert(rows_for(4300, 10)).ok());

  const uint64_t n = 4310;
  const std::pair<uint64_t, uint64_t> want{n, 3 * n * (n - 1) / 2};
  EXPECT_EQ(CountAndSum(t), want);
  std::vector<Value> keys;
  for (Value k = 4080; k < 4310; ++k) keys.push_back(k);
  Txn txn = t.Begin();
  std::vector<std::vector<Value>> out;
  ASSERT_TRUE(t.MultiRead(txn, keys, 0b111, &out).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i][1], keys[i] * 3);
    EXPECT_EQ(out[i][2], keys[i] % 5);
  }
  ASSERT_TRUE(txn.Commit().ok());
  // The insert merge bases every slot, burned ones included.
  t.FlushAll();
  EXPECT_EQ(
      t.metrics()->Snapshot().CounterValue("lstore_merge_insert_rows_total"),
      12210u);
  EXPECT_EQ(CountAndSum(t), want);
}

TEST(InsertPathTest, BatchFeedsSecondaryIndex) {
  Table t("s", Schema(3), SmallConfig());
  t.CreateSecondaryIndex(2);
  std::vector<std::vector<Value>> rows;
  for (Value k = 0; k < 200; ++k) rows.push_back({k, k, k % 4});
  {
    Txn txn = t.Begin();
    ASSERT_TRUE(t.InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  rows.clear();
  for (Value k = 1000; k < 1010; ++k) rows.push_back({k, k, 9});
  rows[5][0] = 3;  // duplicate: rows 1000..1004 land
  {
    Txn txn = t.Begin();
    EXPECT_TRUE(t.InsertBatch(txn, rows).IsAlreadyExists());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::vector<Value> keys;
  ASSERT_TRUE(t.NewQuery().Where(2, 1).Keys(&keys).ok());
  EXPECT_EQ(keys.size(), 50u);
  for (Value k : keys) EXPECT_EQ(k % 4, 1u);
  uint64_t count = 0;
  ASSERT_TRUE(t.NewQuery().Where(2, 9).Count(&count).ok());
  EXPECT_EQ(count, 5u);
}

TEST(InsertPathTest, ConcurrentOverlappingBatchesLandEveryKeyOnce) {
  // Four threads, each inserting half of the key space in shuffled
  // batches, so every key is attempted by two threads. A failed batch
  // keeps its prefix; the thread then retries the batch row by row,
  // skipping keys another thread holds. Every key lands exactly once.
  TableConfig cfg = SmallConfig();
  cfg.enable_merge_thread = true;  // insert merges run alongside
  Table t("c", Schema(3), cfg);
  constexpr Value kKeys = 4000;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      std::vector<Value> mine;
      for (Value i = 0; i < kKeys / 2; ++i) {
        mine.push_back((w * kKeys / kThreads + i) % kKeys);
      }
      std::shuffle(mine.begin(), mine.end(), std::mt19937(w));
      for (size_t b = 0; b < mine.size(); b += 50) {
        std::vector<std::vector<Value>> rows;
        for (size_t i = b; i < std::min(mine.size(), b + 50); ++i) {
          rows.push_back({mine[i], mine[i] * 3, 1});
        }
        Txn txn = t.Begin();
        Status s = t.InsertBatch(txn, rows);
        if (!s.ok()) {
          EXPECT_TRUE(s.IsAlreadyExists());
          for (const std::vector<Value>& row : rows) {
            Status r = t.Insert(txn, row);
            EXPECT_TRUE(r.ok() || r.IsAlreadyExists());
          }
        }
        EXPECT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  t.WaitForMergeQueue();
  EXPECT_EQ(CountAndSum(t),
            std::make_pair(uint64_t{kKeys}, 3 * kKeys * (kKeys - 1) / 2));
  std::vector<Value> keys;
  for (Value k = 0; k < kKeys; ++k) keys.push_back(k);
  Txn txn = t.Begin();
  std::vector<std::vector<Value>> out;
  ASSERT_TRUE(t.MultiRead(txn, keys, 0b010, &out).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

/// The count of each of `txn`'s writeset entries, in order.
std::vector<uint32_t> EntryCounts(Txn& txn) {
  std::vector<uint32_t> counts;
  for (const WriteEntry& w : txn.raw()->writeset()) {
    EXPECT_TRUE(w.is_insert);
    counts.push_back(w.count);
  }
  return counts;
}

TEST(InsertPathTest, OneWritesetEntryPerRangeRun) {
  // Default geometry: 512-slot tail pages, 4096-slot ranges.
  TableConfig cfg;
  cfg.enable_merge_thread = false;
  Table t("w", Schema(3), cfg);
  auto rows_for = [](Value first, Value count) {
    std::vector<std::vector<Value>> rows;
    for (Value k = first; k < first + count; ++k) rows.push_back({k, k, 0});
    return rows;
  };
  using Counts = std::vector<uint32_t>;
  {  // RIDs 0..499.
    Txn txn = t.Begin();
    ASSERT_TRUE(t.InsertBatch(txn, rows_for(0, 500)).ok());
    EXPECT_EQ(EntryCounts(txn), Counts{500});
    ASSERT_TRUE(txn.Commit().ok());
  }
  {  // RIDs 500..4199: seven page boundaries and the range boundary.
    Txn txn = t.Begin();
    ASSERT_TRUE(t.InsertBatch(txn, rows_for(500, 3700)).ok());
    ASSERT_EQ(EntryCounts(txn), (Counts{3596, 104}));
    const WriteEntry& second = txn.raw()->writeset()[1];
    EXPECT_EQ(second.range_id, 1u);
    EXPECT_EQ(second.base_slot, 0u);
    ASSERT_TRUE(txn.Commit().ok());
  }
  {  // RIDs 4200..5223: two page boundaries inside range 1.
    Txn txn = t.Begin();
    ASSERT_TRUE(t.InsertBatch(txn, rows_for(4200, 1024)).ok());
    ASSERT_EQ(EntryCounts(txn), Counts{1024});
    EXPECT_EQ(txn.raw()->writeset()[0].base_slot, 104u);
    ASSERT_TRUE(txn.Commit().ok());
  }
  {  // Fails at row 100: the entry covers the 100 rows before it.
    std::vector<std::vector<Value>> failing = rows_for(5224, 700);
    failing[100][0] = 7;
    Txn txn = t.Begin();
    EXPECT_TRUE(t.InsertBatch(txn, failing).IsAlreadyExists());
    EXPECT_EQ(EntryCounts(txn), Counts{100});
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Txn txn = t.Begin();
    ASSERT_TRUE(t.Insert(txn, {9000, 9000, 0}).ok());
    EXPECT_EQ(EntryCounts(txn), Counts{1});
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Every stamped row reads back, on both sides of each page boundary.
  const uint64_t n = 5324;
  EXPECT_EQ(CountAndSum(t), std::make_pair(n + 1, n * (n - 1) / 2 + 9000));
  t.FlushAll();
  EXPECT_EQ(CountAndSum(t), std::make_pair(n + 1, n * (n - 1) / 2 + 9000));
}

TEST(InsertPathTest, ComparisonEnginesRecordOneEntryPerInsertedRow) {
  TableConfig cfg = SmallConfig();
  IuhTable iuh(Schema(3), cfg);
  DbmTable dbm(Schema(3), cfg);
  RowTable row(Schema(3), cfg);
  auto insert_three = [](auto& engine) {
    Txn txn = engine.Begin();
    for (Value k = 0; k < 3; ++k) {
      EXPECT_TRUE(engine.Insert(txn, {k, k, k}).ok());
    }
    std::vector<Value> keys;
    for (const WriteEntry& w : txn.raw()->writeset()) {
      EXPECT_TRUE(w.is_insert);
      EXPECT_EQ(w.count, 1u);
      keys.push_back(w.inserted_key);
    }
    EXPECT_EQ(keys, (std::vector<Value>{0, 1, 2}));
    EXPECT_TRUE(txn.Commit().ok());
  };
  insert_three(iuh);
  insert_three(dbm);
  insert_three(row);
}

TEST(InsertPathTest, StampsAndAbortsRaceInsertMerges) {
  // One thread commits and aborts (alternately) batches that straddle
  // tail pages and ranges, while a second merges them into base
  // segments and a third scans snapshots. A snapshot holds every row
  // of a committed batch or none.
  TableConfig cfg;
  cfg.enable_merge_thread = false;
  Table t("r", Schema(3), cfg);
  constexpr Value kFirst = 100;  // shifts every batch off the boundaries
  constexpr Value kBatch = 4096;
  constexpr int kBatches = 12;
  {
    Txn txn = t.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < kFirst; ++k) rows.push_back({k, 1, 0});
    ASSERT_TRUE(t.InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto batch_rows = [](int b) {
    std::vector<std::vector<Value>> rows;
    for (Value k = kFirst + b * kBatch; k < kFirst + (b + 1) * kBatch; ++k) {
      rows.push_back({k, 1, 0});
    }
    return rows;
  };
  std::atomic<bool> done{false};
  std::atomic<uint64_t> merge_passes{0};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      // Let a merge pass run between batches, so merges overlap them.
      const uint64_t seen = merge_passes.load();
      while (merge_passes.load() == seen) std::this_thread::yield();
      Txn txn = t.Begin();
      EXPECT_TRUE(t.InsertBatch(txn, batch_rows(b)).ok());
      if (b % 2 == 0) {
        EXPECT_TRUE(txn.Commit().ok());
      } else {
        txn.Abort();
      }
    }
    done.store(true);
  });
  std::thread merger([&] {
    while (!done.load()) {
      for (uint64_t r = 0; r < t.num_ranges(); ++r) t.InsertMergeNow(r);
      t.FlushAll();
      merge_passes.fetch_add(1);
    }
  });
  std::thread scanner([&] {
    while (!done.load()) {
      uint64_t sum = 0, rows = 0;
      EXPECT_TRUE(t.NewQuery().Sum(1, &sum, &rows).ok());
      EXPECT_EQ(rows % kBatch, uint64_t{kFirst});
      EXPECT_EQ(sum, rows);
    }
  });
  writer.join();
  merger.join();
  scanner.join();

  Txn txn = t.Begin();
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Value> keys;
    for (const std::vector<Value>& row : batch_rows(b)) keys.push_back(row[0]);
    std::vector<std::vector<Value>> out;
    std::vector<Status> statuses;
    Status s = t.MultiRead(txn, keys, 0b010, &out, &statuses);
    if (b % 2 == 0) {
      EXPECT_TRUE(s.ok()) << "batch " << b;
    } else {
      for (const Status& st : statuses) ASSERT_TRUE(st.IsNotFound());
      // No index entry is left behind: the keys insert again.
      EXPECT_TRUE(t.InsertBatch(txn, batch_rows(b)).ok()) << "batch " << b;
    }
  }
  ASSERT_TRUE(txn.Commit().ok());
  const uint64_t total = kFirst + kBatches * kBatch;
  EXPECT_EQ(CountAndSum(t), std::make_pair(total, total));
  t.FlushAll();
  EXPECT_EQ(
      t.metrics()->Snapshot().CounterValue("lstore_merge_insert_rows_total"),
      t.num_rows());
}

// One frame per batch, verified at the log-frame level: the batch of
// N tail appends plus the commit record make exactly TWO physical
// frames, yet every record keeps its own LSN and replays individually.
TEST(BatchLogTest, BatchProducesOneFrameAndReplays) {
  const std::string dir = FreshDir("lstore_batch_log_test");
  const std::string path = FramedLog::SegmentPath(dir, 1);
  std::unique_ptr<Database> db;
  {
    Table& table = OpenOneTable(dir, &db);
    Txn txn = table.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < 40; ++k) rows.push_back({k, k + 1, 0});
    ASSERT_TRUE(table.InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db.reset();
  // Frame-level inspection: parse the physical framing directly.
  // 40 batched inserts + 1 commit record = exactly TWO frames.
  EXPECT_EQ(FramesIn(path), 2u);
  // Logically the batch frame still carries 40 individually-numbered
  // records.
  size_t records = 0;
  uint64_t max_lsn = 0;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  dir,
                  [&](const LogRecord&, uint64_t lsn) {
                    ++records;
                    max_lsn = lsn;
                  },
                  &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(records, 41u);  // 40 inserts + 1 commit
  EXPECT_EQ(max_lsn, 41u);  // every record carries its own LSN

  // And a restart rebuilds the table from the batch frame.
  Table& recovered = OpenOneTable(dir, &db);
  EXPECT_EQ(recovered.num_rows(), 40u);
  uint64_t sum = 0;
  ASSERT_TRUE(recovered.NewQuery().Sum(1, &sum).ok());
  EXPECT_EQ(sum, 40u * 41u / 2);
  db.reset();
  std::filesystem::remove_all(dir);
}

// Cross-table sessions run the same pipeline: only written tables get
// commit records, and auto-abort spans all participants.
TEST(SessionTest, CrossTableSessionCommitsAtomically) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(3), SmallConfig()).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema(3), SmallConfig()).ok());
  Table* a = db.GetTable("a");
  Table* b = db.GetTable("b");
  {
    Txn txn = db.Begin();
    ASSERT_TRUE(a->Insert(txn, {1, 10, 0}).ok());
    ASSERT_TRUE(b->Insert(txn, {1, 20, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // Move 5 from a:1 to b:1, then drop the session: both tombstoned.
    Txn txn = db.Begin();
    ASSERT_TRUE(a->Update(txn, 1, 0b010, {0, 5, 0}).ok());
    ASSERT_TRUE(b->Update(txn, 1, 0b010, {0, 25, 0}).ok());
  }
  Txn check = db.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(a->Read(check, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 10u);
  ASSERT_TRUE(b->Read(check, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 20u);
  ASSERT_TRUE(check.Commit().ok());
}

TEST(SessionTest, CommitAfterFinishFails) {
  Table table("t", Schema(2), SmallConfig());
  Txn txn = table.Begin();
  ASSERT_TRUE(table.Insert(txn, {1, 2}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(txn.Commit().IsInvalidArgument());
  txn.Abort();  // no-op after commit
  EXPECT_FALSE(txn.active());
}

TEST(SessionTest, MoveTransfersOwnership) {
  Table table("t", Schema(2), SmallConfig());
  Txn a = table.Begin();
  ASSERT_TRUE(table.Insert(a, {1, 2}).ok());
  Txn b = std::move(a);
  EXPECT_TRUE(b.active());
  ASSERT_TRUE(b.Commit().ok());
  Txn check = table.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table.Read(check, 1, 0b01, &out).ok());
}

}  // namespace
}  // namespace lstore
