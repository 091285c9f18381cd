// Tests for L-Store (Row), the row-layout lineage variant used by the
// layout comparison of Section 6.2 (Tables 8-9), and for the version
// store it shares with the two baseline engines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/random.h"
#include "core/row_table.h"

namespace lstore {
namespace {

TableConfig Config() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.enable_merge_thread = false;
  return cfg;
}

class RowTableTest : public ::testing::Test {
 protected:
  RowTableTest() : table_(Schema(4), Config()) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < 30; ++k) {
      EXPECT_TRUE(table_.Insert(txn, {k, k * 10, k * 100, k * 1000}).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  RowTable table_;
};

TEST_F(RowTableTest, InsertAndReadFullRow) {
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 7, 0b1111, &out).ok());
  EXPECT_EQ(out, (std::vector<Value>{7, 70, 700, 7000}));
  (void)txn.Commit();
}

TEST_F(RowTableTest, UpdateWritesCompleteRowVersion) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 7, 0b0010, {0, 71, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 7, 0b1111, &out).ok());
  // A row-store version is complete: untouched columns carried over.
  EXPECT_EQ(out, (std::vector<Value>{7, 71, 700, 7000}));
  (void)r.Commit();
}

TEST_F(RowTableTest, DuplicateKeyRejected) {
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Insert(txn, {7, 0, 0, 0}).IsAlreadyExists());
  txn.Abort();
}

TEST_F(RowTableTest, WriteWriteConflictAborts) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 3, 0b0010, {0, 1, 0, 0}).ok());
  Txn t2 = table_.Begin();
  EXPECT_TRUE(table_.Update(t2, 3, 0b0010, {0, 2, 0, 0}).IsAborted());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
}

TEST_F(RowTableTest, AbortHidesVersion) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 3, 0b0010, {0, 999, 0, 0}).ok());
  t1.Abort();
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 3, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 30u);
  (void)r.Commit();
}

TEST_F(RowTableTest, SnapshotReadStable) {
  Txn snap = table_.Begin(IsolationLevel::kSnapshot);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(snap, 5, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  Txn w = table_.Begin();
  ASSERT_TRUE(table_.Update(w, 5, 0b0010, {0, 51, 0, 0}).ok());
  ASSERT_TRUE(w.Commit().ok());
  ASSERT_TRUE(table_.Read(snap, 5, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  (void)snap.Commit();
}

TEST_F(RowTableTest, ScanSumsVisibleRows) {
  uint64_t sum = 0;
  Timestamp now = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(table_.SumColumn(1, now, &sum).ok());
  uint64_t expect = 0;
  for (Value k = 0; k < 30; ++k) expect += k * 10;
  EXPECT_EQ(sum, expect);
}

TEST_F(RowTableTest, ScanReflectsUpdatesImmediately) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 0, 0b0010, {0, 5, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  uint64_t sum = 0;
  Timestamp now = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(table_.SumColumn(1, now, &sum).ok());
  uint64_t expect = 5;
  for (Value k = 1; k < 30; ++k) expect += k * 10;
  EXPECT_EQ(sum, expect);
}

TEST_F(RowTableTest, VersionChainAcrossManyUpdates) {
  for (Value v = 0; v < 50; ++v) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Update(txn, 9, 0b0100, {0, 0, v, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Txn r = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(r, 9, 0b0100, &out).ok());
  EXPECT_EQ(out[2], 49u);
  (void)r.Commit();
}

// --- the version stores under concurrency ----------------------------------

// L-Store (Row), In-place Update + History and Delta + Blocking Merge
// each keep versions in a ChunkedStore that readers index without a
// latch while updaters grow it. Three updaters and one scanner run
// until the stores span many chunks; small pages spread the IUH
// scanner's latches over several pages, so scans overlap updates.
template <typename TableT, bool kMerges = false>
struct VersionStoreCase {
  using Table = TableT;
  static TableConfig Config() {
    TableConfig cfg;
    cfg.range_size = 64;
    cfg.base_page_slots = 16;
    cfg.merge_threshold = 256;
    cfg.enable_merge_thread = kMerges;
    return cfg;
  }
};

template <typename Case>
class VersionStoreConcurrencyTest : public ::testing::Test {};

using VersionStoreCases =
    ::testing::Types<VersionStoreCase<RowTable>, VersionStoreCase<IuhTable>,
                     VersionStoreCase<DbmTable>,
                     VersionStoreCase<DbmTable, /*kMerges=*/true>>;
TYPED_TEST_SUITE(VersionStoreConcurrencyTest, VersionStoreCases);

TYPED_TEST(VersionStoreConcurrencyTest, UpdatersAndScannerSpanManyChunks) {
  constexpr Value kRows = 30;
  constexpr uint64_t kTargetCommits = 20000;
  typename TypeParam::Table table(Schema(4), TypeParam::Config());
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < kRows; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k * 10, k * 100, k * 1000}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::atomic<uint64_t> commits{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Random rng(2 + w);
      while (!stop.load() && commits.load() < kTargetCommits) {
        Txn txn = table.Begin();
        std::vector<Value> row(4, 0);
        row[1] = rng.Uniform(1000);
        if (table.Update(txn, rng.Uniform(kRows), 0b0010, row).ok() &&
            txn.Commit().ok()) {
          commits.fetch_add(1);
        } else {
          txn.Abort();  // no-op if the commit already finished it
        }
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    uint64_t sum = 0;
    ASSERT_TRUE(table.SumColumn(1, table.Now(), &sum).ok());
  } while (commits.load() < kTargetCommits &&
           std::chrono::steady_clock::now() < deadline);
  stop = true;
  for (auto& t : writers) t.join();
  EXPECT_GE(commits.load(), kTargetCommits);

  // Quiet: the scan agrees with the latest committed value of each key.
  uint64_t expect = 0;
  {
    Txn txn = table.Begin();
    std::vector<Value> out;
    for (Value k = 0; k < kRows; ++k) {
      ASSERT_TRUE(table.Read(txn, k, 0b0010, &out).ok());
      expect += out[1];
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  uint64_t sum = 0;
  ASSERT_TRUE(table.SumColumn(1, table.Now(), &sum).ok());
  EXPECT_EQ(sum, expect);
}

}  // namespace
}  // namespace lstore
