// Races on a range's memory lifecycle (range.h). The insert merge that
// bases a range's last slots retires its insert state through the epoch
// manager while point reads, scans, a checkpoint capture and the size
// gauges may still be reading it; a never-updated range builds its
// update state on the first update, which racing writers install once.
// Run under TSan and ASan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCols = 3;

TableConfig SmallRanges() {
  TableConfig cfg;
  cfg.range_size = 256;
  cfg.tail_page_slots = 32;
  return cfg;
}

std::vector<Value> RowOf(Value k) { return {k, k + 1, k + 2}; }

/// A visible row must hold its insert's values.
bool Intact(Value key, const std::vector<Value>& row) {
  return row.size() == kCols && row[0] == key && row[1] == key + 1 &&
         row[2] == key + 2;
}

TEST(LifecycleRaceTest, ReadersScansAndCheckpointsRaceInsertStateRetire) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_lifecycle_race";
  fs::remove_all(dir);
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir, DurabilityOptions{}, &db).ok());
  ASSERT_TRUE(db->CreateTable("t", Schema(kCols), SmallRanges()).ok());
  Table* t = db->GetTable("t");
  constexpr Value kRows = 24 * 256;
  constexpr Value kBatch = 64;  // four batches fill a range

  // Keys below `committed` are visible to any read that starts later.
  std::atomic<Value> committed{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0}, reads{0}, scans{0}, checkpoints{0};

  std::vector<std::thread> threads;
  // Point reads of the newest committed slots, one key and a batch.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        const Value hi = committed.load(std::memory_order_acquire);
        if (hi == 0) continue;
        Txn txn = db->Begin();
        if (r == 0) {
          std::vector<Value> row;
          const Value k = hi - 1;
          if (!t->Read(txn, k, t->schema().AllColumns(), &row).ok() ||
              !Intact(k, row)) {
            bad.fetch_add(1);
          }
        } else {
          std::vector<Value> keys;
          for (Value k = hi > kBatch ? hi - kBatch : 0; k < hi; ++k) {
            keys.push_back(k);
          }
          std::vector<std::vector<Value>> rows;
          if (!t->MultiRead(txn, keys, t->schema().AllColumns(), &rows).ok()) {
            bad.fetch_add(1);
          }
          for (size_t i = 0; i < rows.size(); ++i) {
            if (!Intact(keys[i], rows[i])) bad.fetch_add(1);
          }
        }
        (void)txn.Commit();
        reads.fetch_add(1);
      }
    });
  }
  // Scans: every committed row, each intact.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Value hi = committed.load(std::memory_order_acquire);
      std::atomic<uint64_t> rows{0};
      Status s = t->NewQuery().Workers(2).Visit(
          [&](Value key, const std::vector<Value>& row) {
            if (!Intact(key, row)) bad.fetch_add(1);
            rows.fetch_add(1);
          });
      if (!s.ok() || rows.load() < hi) bad.fetch_add(1);
      scans.fetch_add(1);
    }
  });
  // Checkpoint captures and the size gauges (the reporter's reads).
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (!db->Checkpoint().ok()) bad.fetch_add(1);
      (void)t->TailBytes();
      (void)t->BaseResidentBytes();
      checkpoints.fetch_add(1);
    }
  });

  // Each batch waits for a round of every racer, so each range's last
  // merge meets them.
  auto round = [&] {
    return std::min({reads.load(), scans.load(), checkpoints.load()});
  };
  for (Value k = 0; k < kRows; k += kBatch) {
    std::vector<std::vector<Value>> rows;
    for (Value i = k; i < k + kBatch; ++i) rows.push_back(RowOf(i));
    Txn txn = db->Begin();
    ASSERT_TRUE(t->InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
    committed.store(k + kBatch, std::memory_order_release);
    for (const uint64_t seen = round(); round() < seen + 2;) {
      std::this_thread::yield();
    }
  }
  t->WaitForMergeQueue();
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
  EXPECT_GT(checkpoints.load(), 0u);
  // Every range is full and based: once the readers are gone, no
  // insert state is left.
  t->epochs().TryReclaim();
  EXPECT_EQ(t->TailBytes(), 0u);
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();

  // The checkpoints taken mid-retire restore every row.
  ASSERT_TRUE(Database::Open(dir, DurabilityOptions{}, &db).ok());
  t = db->GetTable("t");
  ASSERT_NE(t, nullptr);
  uint64_t count = 0;
  ASSERT_TRUE(t->NewQuery().Count(&count).ok());
  EXPECT_EQ(count, kRows);
  EXPECT_EQ(t->TailBytes(), 0u);
  db.reset();
  fs::remove_all(dir);
}

TEST(LifecycleRaceTest, FirstUpdatesRaceTheUpdateStateInstall) {
  Table t("t", Schema(kCols), SmallRanges());
  constexpr Value kRanges = 16;
  constexpr int kWriters = 4;
  {
    std::vector<std::vector<Value>> rows;
    for (Value k = 0; k < kRanges * 256; ++k) rows.push_back(RowOf(k));
    Txn txn = t.Begin();
    ASSERT_TRUE(t.InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  t.WaitForMergeQueue();
  ASSERT_EQ(t.UpdateMetaBytes(), 0u);

  // Each range's first updates come from every writer at once, on
  // different rows, with a reader of those rows beside them.
  for (Value r = 0; r < kRanges; ++r) {
    std::latch start(kWriters + 1);
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        const Value k = r * 256 + w * 7;
        start.arrive_and_wait();
        Txn txn = t.Begin();
        if (!t.Update(txn, k, 0b010, {0, k + 100, 0}).ok() ||
            !txn.Commit().ok()) {
          failed.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      start.arrive_and_wait();
      Txn txn = t.Begin();
      for (int w = 0; w < kWriters; ++w) {
        std::vector<Value> row;
        const Value k = r * 256 + w * 7;
        if (!t.Read(txn, k, 0b010, &row).ok() ||
            (row[1] != k + 1 && row[1] != k + 100)) {
          failed.fetch_add(1);
        }
      }
      (void)txn.Commit();
    });
    for (auto& th : threads) th.join();
    ASSERT_EQ(failed.load(), 0) << "range " << r;
    // One update state: each writer appended a pre-image and a version.
    EXPECT_EQ(t.RangeTailLength(r), 2u * kWriters) << r;
  }
  EXPECT_EQ(t.UpdateMetaBytes(), kRanges * 256 * 8);
  Txn txn = t.Begin();
  for (Value r = 0; r < kRanges; ++r) {
    for (int w = 0; w < kWriters; ++w) {
      std::vector<Value> row;
      const Value k = r * 256 + w * 7;
      ASSERT_TRUE(t.Read(txn, k, 0b010, &row).ok());
      EXPECT_EQ(row[1], k + 100) << k;
    }
  }
  ASSERT_TRUE(txn.Commit().ok());
}

}  // namespace
}  // namespace lstore
