// Query-layer tests: builder semantics (projection, row ranges,
// predicates, time travel), parallel partitioned execution, the
// secondary-index candidate plan, and — the crucial invariant —
// parallel queries racing update-merge, insert-merge, and historic
// compression must match single-threaded results exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

TableConfig QueryConfig(bool merge_thread) {
  TableConfig cfg;
  cfg.range_size = 128;
  cfg.insert_range_size = 128;
  cfg.tail_page_slots = 32;
  cfg.merge_threshold = 64;
  cfg.enable_merge_thread = merge_thread;
  return cfg;
}

class QueryTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 600;

  QueryTest() : table_("q", Schema(4), QueryConfig(false)) {
    Txn txn = table_.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < kRows; ++k) {
      rows.push_back({k, 1, k, k % 10});
    }
    EXPECT_TRUE(table_.InsertBatch(txn, rows).ok());
    EXPECT_TRUE(txn.Commit().ok());
  }

  Table table_;
};

TEST_F(QueryTest, SumCountOverFreshTable) {
  uint64_t sum = 0, rows = 0;
  ASSERT_TRUE(table_.NewQuery().Sum(1, &sum, &rows).ok());
  EXPECT_EQ(sum, kRows);
  EXPECT_EQ(rows, kRows);
  ASSERT_TRUE(table_.NewQuery().Sum(2, &sum).ok());
  EXPECT_EQ(sum, kRows * (kRows - 1) / 2);
  uint64_t n = 0;
  ASSERT_TRUE(table_.NewQuery().Count(&n).ok());
  EXPECT_EQ(n, kRows);
}

TEST_F(QueryTest, MinMaxTerminals) {
  Value v = 0;
  uint64_t rows = 0;
  ASSERT_TRUE(table_.NewQuery().Min(2, &v, &rows).ok());
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(rows, kRows);
  ASSERT_TRUE(table_.NewQuery().Max(2, &v, &rows).ok());
  EXPECT_EQ(v, kRows - 1);
  EXPECT_EQ(rows, kRows);
  // Filters compose: col2 == k restricted to k % 10 == 4.
  ASSERT_TRUE(table_.NewQuery().Where(3, Value{4}).Min(2, &v).ok());
  EXPECT_EQ(v, 4u);
  ASSERT_TRUE(table_.NewQuery().Where(3, Value{4}).Max(2, &v).ok());
  EXPECT_EQ(v, kRows - 6);  // 594 for kRows = 600
  // Row ranges restrict the scan interval.
  ASSERT_TRUE(table_.NewQuery().Range(100, 50).Min(2, &v).ok());
  EXPECT_EQ(v, 100u);
  ASSERT_TRUE(table_.NewQuery().Range(100, 50).Max(2, &v).ok());
  EXPECT_EQ(v, 149u);
  // No matching rows: the result is ∅.
  ASSERT_TRUE(table_.NewQuery()
                  .Where(2, [](Value x) { return x > kRows * 2; })
                  .Min(2, &v, &rows)
                  .ok());
  EXPECT_EQ(v, kNull);
  EXPECT_EQ(rows, 0u);
  // Merged fast path (compressed-segment cursors) gives the same
  // answers, sequential or parallel.
  table_.FlushAll();
  ASSERT_TRUE(table_.NewQuery().Workers(4).Min(2, &v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(table_.NewQuery().Workers(4).Max(2, &v).ok());
  EXPECT_EQ(v, kRows - 1);
}

TEST_F(QueryTest, MinMaxTimeTravelAndDeletes) {
  Timestamp snap = table_.Now();
  {
    Txn txn = table_.Begin();
    // Push the maximum up and delete the old maximum row.
    ASSERT_TRUE(table_.Update(txn, 7, 0b0100, {0, 0, 100000, 0}).ok());
    ASSERT_TRUE(table_.Delete(txn, kRows - 1).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Value v = 0;
  ASSERT_TRUE(table_.NewQuery().Max(2, &v).ok());
  EXPECT_EQ(v, 100000u);
  // The old snapshot still sees the pre-update world.
  ASSERT_TRUE(table_.NewQuery().AsOf(snap).Max(2, &v).ok());
  EXPECT_EQ(v, kRows - 1);
  uint64_t rows = 0;
  ASSERT_TRUE(table_.NewQuery().Min(2, &v, &rows).ok());
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(rows, kRows - 1);  // the deleted row is gone
}

TEST_F(QueryTest, RowRangeRestriction) {
  uint64_t sum = 0;
  ASSERT_TRUE(table_.NewQuery().Range(100, 50).Sum(2, &sum).ok());
  uint64_t expect = 0;
  for (uint64_t k = 100; k < 150; ++k) expect += k;
  EXPECT_EQ(sum, expect);
  // Range past the end clamps.
  ASSERT_TRUE(table_.NewQuery().Range(kRows - 10, 1000).Sum(1, &sum).ok());
  EXPECT_EQ(sum, 10u);
  // Empty range sums to zero.
  ASSERT_TRUE(table_.NewQuery().Range(kRows, 10).Sum(1, &sum).ok());
  EXPECT_EQ(sum, 0u);
}

TEST_F(QueryTest, PredicatesComposeAndPushDown) {
  // Equality + arbitrary predicate on different columns.
  uint64_t rows = 0, sum = 0;
  ASSERT_TRUE(table_.NewQuery()
                  .Where(3, Value{4})
                  .Where(2, [](Value v) { return v < 300; })
                  .Sum(2, &sum, &rows)
                  .ok());
  uint64_t expect_sum = 0, expect_rows = 0;
  for (uint64_t k = 0; k < kRows; ++k) {
    if (k % 10 == 4 && k < 300) {
      expect_sum += k;
      ++expect_rows;
    }
  }
  EXPECT_EQ(sum, expect_sum);
  EXPECT_EQ(rows, expect_rows);
  // The same result from merged base segments.
  table_.FlushAll();
  uint64_t sum2 = 0, rows2 = 0;
  ASSERT_TRUE(table_.NewQuery()
                  .Where(3, Value{4})
                  .Where(2, [](Value v) { return v < 300; })
                  .Sum(2, &sum2, &rows2)
                  .ok());
  EXPECT_EQ(sum2, expect_sum);
  EXPECT_EQ(rows2, expect_rows);
}

TEST_F(QueryTest, VisitProjectsRequestedColumnsOnly) {
  uint64_t rows = 0;
  ASSERT_TRUE(table_.NewQuery()
                  .Project(0b0100)
                  .Range(10, 5)
                  .Visit([&](Value key, const std::vector<Value>& row) {
                    ++rows;
                    EXPECT_EQ(row[2], key);      // projected
                    EXPECT_EQ(row[1], kNull);    // not projected
                    EXPECT_EQ(row[3], kNull);    // not projected
                  })
                  .ok());
  EXPECT_EQ(rows, 5u);
}

TEST_F(QueryTest, VisitNeverLeaksFilterColumnsAcrossRows) {
  // Mixed fast/slow slots: merge everything, then update a few keys
  // so their chain head moves past the merged TPS (slow path). The
  // reused scratch row must not leak a slow-path row's filter value
  // into a following fast-path row's unprojected column.
  table_.FlushAll();
  for (Value k = 100; k < 110; ++k) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Update(txn, k, 0b0010, {0, 2, 0, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  uint64_t rows = 0;
  ASSERT_TRUE(table_.NewQuery()
                  .Project(0b0010)
                  .Where(2, [](Value v) { return v < kRows; })  // col 2 needed
                  .Visit([&](Value key, const std::vector<Value>& row) {
                    ++rows;
                    EXPECT_EQ(row[2], kNull) << "key " << key;  // unprojected
                    EXPECT_EQ(row[3], kNull) << "key " << key;
                  })
                  .ok());
  EXPECT_EQ(rows, kRows);
}

TEST_F(QueryTest, OperationsOnFinishedSessionAreRejected) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(txn.Commit().ok());
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(txn, 1, 0b0010, &out).IsInvalidArgument());
  EXPECT_TRUE(table_.Insert(txn, {9999, 0, 0, 0}).IsInvalidArgument());
  EXPECT_TRUE(
      table_.Update(txn, 1, 0b0010, {0, 5, 0, 0}).IsInvalidArgument());
  EXPECT_TRUE(
      table_.InsertBatch(txn, {{9998, 0, 0, 0}}).IsInvalidArgument());
  // The rejected insert left no phantom index entry.
  Txn fresh = table_.Begin();
  EXPECT_TRUE(table_.Insert(fresh, {9999, 1, 2, 3}).ok());
  ASSERT_TRUE(fresh.Commit().ok());
}

TEST_F(QueryTest, AsOfReconstructsOldSnapshots) {
  Timestamp snap = table_.Now();
  for (Value k = 0; k < 100; ++k) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Update(txn, k, 0b0010, {0, 1000, 0, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  uint64_t sum = 0;
  ASSERT_TRUE(table_.NewQuery().AsOf(snap).Sum(1, &sum).ok());
  EXPECT_EQ(sum, kRows);  // the old snapshot
  ASSERT_TRUE(table_.NewQuery().Sum(1, &sum).ok());
  EXPECT_EQ(sum, kRows - 100 + 100 * 1000);
  // Merging does not change either snapshot.
  table_.FlushAll();
  ASSERT_TRUE(table_.NewQuery().AsOf(snap).Sum(1, &sum).ok());
  EXPECT_EQ(sum, kRows);
}

TEST_F(QueryTest, BadColumnsAreRejected) {
  uint64_t sum = 0;
  EXPECT_TRUE(table_.NewQuery().Sum(9, &sum).IsInvalidArgument());
  EXPECT_TRUE(table_.NewQuery()
                  .Where(17, Value{0})
                  .Count(&sum)
                  .IsInvalidArgument());
}

TEST_F(QueryTest, ParallelMatchesSequential) {
  // Mixed state: some updates, a delete, a partial merge.
  Random rng(7);
  for (int i = 0; i < 400; ++i) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(
        table_.Update(txn, rng.Uniform(kRows), 0b0010, {0, 5, 0, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Delete(txn, 42).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  table_.InsertMergeNow(0);
  table_.MergeRangeNow(0);

  Timestamp snap = table_.Now();
  uint64_t seq_sum = 0, seq_rows = 0;
  ASSERT_TRUE(
      table_.NewQuery().AsOf(snap).Workers(1).Sum(1, &seq_sum, &seq_rows).ok());
  for (uint32_t workers : {2u, 4u, 8u}) {
    uint64_t par_sum = 0, par_rows = 0;
    ASSERT_TRUE(table_.NewQuery()
                    .AsOf(snap)
                    .Workers(workers)
                    .Sum(1, &par_sum, &par_rows)
                    .ok());
    EXPECT_EQ(par_sum, seq_sum) << workers << " workers";
    EXPECT_EQ(par_rows, seq_rows) << workers << " workers";
  }
  // Parallel Visit delivers the same multiset of keys.
  std::vector<Value> seq_keys, par_keys;
  ASSERT_TRUE(table_.NewQuery().AsOf(snap).Workers(1).Keys(&seq_keys).ok());
  ASSERT_TRUE(table_.NewQuery().AsOf(snap).Workers(8).Keys(&par_keys).ok());
  EXPECT_EQ(par_keys, seq_keys);
}

TEST_F(QueryTest, SecondaryIndexPlanRevalidatesCandidates) {
  table_.CreateSecondaryIndex(3);
  std::vector<Value> keys;
  ASSERT_TRUE(table_.NewQuery().Where(3, Value{7}).Keys(&keys).ok());
  std::vector<Value> expect;
  for (Value k = 7; k < kRows; k += 10) expect.push_back(k);
  EXPECT_EQ(keys, expect);
  // Move key 7 out of bucket 7: the stale posting must be filtered.
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 7, 0b1000, {0, 0, 0, 3}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(table_.NewQuery().Where(3, Value{7}).Keys(&keys).ok());
  expect.erase(expect.begin());
  EXPECT_EQ(keys, expect);
  // Composing the indexed filter with another predicate still works.
  uint64_t n = 0;
  ASSERT_TRUE(table_.NewQuery()
                  .Where(3, Value{7})
                  .Where(2, [](Value v) { return v < 100; })
                  .Count(&n)
                  .ok());
  EXPECT_EQ(n, 9u);  // 17, 27, ..., 97
}

// The satellite invariant: parallel Sum/Visit racing update-merge,
// insert-merge, and historic compression always observe a consistent
// snapshot — identical to what a single-threaded scan of the same
// snapshot sees (balance conservation makes any divergence visible).
TEST(QueryMaintenanceRaceTest, ParallelScansRaceMergesAndCompression) {
  Table table("race", Schema(3), QueryConfig(true));
  constexpr uint64_t kRows = 512;
  constexpr Value kInitial = 1000;
  {
    Txn txn = table.Begin();
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < kRows; ++k) rows.push_back({k, kInitial, 0});
    ASSERT_TRUE(table.InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> transfers{0};
  // Balance-preserving transfers keep the total invariant.
  std::thread writer([&] {
    Random rng(55);
    while (!stop.load()) {
      Value from = rng.Uniform(kRows), to = rng.Uniform(kRows);
      if (from == to) continue;
      Value amount = 1 + rng.Uniform(5);
      Txn txn = table.Begin(IsolationLevel::kSerializable);
      std::vector<Value> a, b;
      if (!table.Read(txn, from, 0b010, &a).ok() ||
          !table.Read(txn, to, 0b010, &b).ok() || a[1] < amount) {
        continue;  // auto-abort
      }
      std::vector<Value> row(3, 0);
      row[1] = a[1] - amount;
      if (!table.Update(txn, from, 0b010, row).ok()) continue;
      row[1] = b[1] + amount;
      if (!table.Update(txn, to, 0b010, row).ok()) continue;
      if (txn.Commit().ok()) transfers.fetch_add(1);
    }
  });
  // Maintenance thread: forces merges and historic compression under
  // the scans (beyond what the background merge tasks do).
  std::thread maintenance([&] {
    Random rng(99);
    while (!stop.load()) {
      uint64_t range = rng.Uniform(kRows / 128);
      table.InsertMergeNow(range);
      table.MergeRangeNow(range);
      table.CompressHistoricNow(range);
      table.epochs().TryReclaim();
      std::this_thread::yield();
    }
  });

  const uint64_t expected = kRows * kInitial;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 0;
  while ((i < 40 || transfers.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    Timestamp snap = table.Now();
    uint64_t par = 0, seq = 0, par_rows = 0;
    ASSERT_TRUE(
        table.NewQuery().AsOf(snap).Workers(4).Sum(1, &par, &par_rows).ok());
    ASSERT_TRUE(table.NewQuery().AsOf(snap).Workers(1).Sum(1, &seq).ok());
    EXPECT_EQ(par, expected) << "iteration " << i;
    EXPECT_EQ(seq, expected) << "iteration " << i;
    EXPECT_EQ(par_rows, kRows) << "iteration " << i;
    ++i;
  }
  stop = true;
  writer.join();
  maintenance.join();
  EXPECT_GT(transfers.load(), 0u);
  table.WaitForMergeQueue();
  table.FlushAll();
  uint64_t sum = 0;
  ASSERT_TRUE(table.NewQuery().Workers(8).Sum(1, &sum).ok());
  EXPECT_EQ(sum, expected);
}

}  // namespace
}  // namespace lstore
