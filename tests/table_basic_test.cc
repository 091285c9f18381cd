// Basic fine-grained manipulation on the L-Store table (Section 3):
// insert, point read with projection, update (with pre-image
// snapshots), delete, and error paths.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

TableConfig SmallConfig() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 32;
  cfg.enable_merge_thread = false;  // deterministic foreground tests
  return cfg;
}

class TableBasicTest : public ::testing::Test {
 protected:
  TableBasicTest() : table_("t", Schema(4), SmallConfig()) {}

  // Commits a single-insert transaction.
  Status InsertRow(const std::vector<Value>& row) {
    Txn txn = table_.Begin();
    Status s = table_.Insert(txn, row);
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

  Status UpdateRow(Value key, ColumnMask mask, const std::vector<Value>& row) {
    Txn txn = table_.Begin();
    Status s = table_.Update(txn, key, mask, row);
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

  std::vector<Value> ReadRow(Value key, ColumnMask mask,
                             Status* status = nullptr) {
    Txn txn = table_.Begin();
    std::vector<Value> out;
    Status s = table_.Read(txn, key, mask, &out);
    (void)txn.Commit();
    if (status != nullptr) *status = s;
    return out;
  }

  Table table_;
};

TEST_F(TableBasicTest, InsertThenReadAllColumns) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Status s;
  auto row = ReadRow(1, 0b1111, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(row, (std::vector<Value>{1, 10, 20, 30}));
}

TEST_F(TableBasicTest, ProjectionReadsOnlyRequestedColumns) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  auto row = ReadRow(1, 0b0100);
  EXPECT_EQ(row[2], 20u);
  EXPECT_EQ(row[0], kNull);  // unrequested columns come back as null
  EXPECT_EQ(row[1], kNull);
  EXPECT_EQ(row[3], kNull);
}

TEST_F(TableBasicTest, ReadMissingKeyIsNotFound) {
  Status s;
  ReadRow(42, 0b1111, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, DuplicateKeyRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  EXPECT_TRUE(InsertRow({1, 11, 21, 31}).IsAlreadyExists());
  // Original row intact.
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 10u);
}

TEST_F(TableBasicTest, UpdateSingleColumn) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b0010, {0, 11, 0, 0}).ok());
  auto row = ReadRow(1, 0b1111);
  EXPECT_EQ(row, (std::vector<Value>{1, 11, 20, 30}));
}

TEST_F(TableBasicTest, UpdateMultipleColumnsAtOnce) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b1010, {0, 11, 0, 31}).ok());
  auto row = ReadRow(1, 0b1111);
  EXPECT_EQ(row, (std::vector<Value>{1, 11, 20, 31}));
}

TEST_F(TableBasicTest, RepeatedUpdatesSeeLatest) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  for (Value v = 100; v < 110; ++v) {
    ASSERT_TRUE(UpdateRow(1, 0b0010, {0, v, 0, 0}).ok());
  }
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 109u);
}

TEST_F(TableBasicTest, UpdateKeyColumnRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Update(txn, 1, 0b0001, {9, 0, 0, 0})
                  .IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, UpdateUnknownColumnRejected) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Update(txn, 1, 1ull << 40, {}).IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, InsertArityMismatchRejected) {
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Insert(txn, {1, 2}).IsInvalidArgument());
  txn.Abort();
}

TEST_F(TableBasicTest, DeleteMakesRecordInvisible) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Status s;
  ReadRow(1, 0b1111, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, UpdateAfterDeleteIsNotFound) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(UpdateRow(1, 0b0010, {0, 99, 0, 0}).IsNotFound());
}

TEST_F(TableBasicTest, DeletedRecordStillVisibleToOlderSnapshot) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Timestamp before = table_.txn_manager().clock().Tick();
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Delete(txn, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, before, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 10u);
}

TEST_F(TableBasicTest, InsertsSpanMultipleRanges) {
  for (Value k = 0; k < 200; ++k) {  // range_size 64 -> 4 ranges
    ASSERT_TRUE(InsertRow({k, k + 1, k + 2, k + 3}).ok());
  }
  EXPECT_GE(table_.num_ranges(), 3u);
  for (Value k = 0; k < 200; ++k) {
    EXPECT_EQ(ReadRow(k, 0b0010)[1], k + 1);
  }
}

TEST_F(TableBasicTest, MultiStatementTransactionIsAtomicOnAbort) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 1, 0b0010, {0, 99, 0, 0}).ok());
  ASSERT_TRUE(table_.Insert(txn, {2, 200, 201, 202}).ok());
  txn.Abort();
  // Neither the update nor the insert took effect.
  EXPECT_EQ(ReadRow(1, 0b0010)[1], 10u);
  Status s;
  ReadRow(2, 0b0001, &s);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(TableBasicTest, AbortedInsertKeyIsReusable) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Insert(txn, {7, 1, 2, 3}).ok());
  txn.Abort();
  EXPECT_TRUE(InsertRow({7, 4, 5, 6}).ok());
  EXPECT_EQ(ReadRow(7, 0b0010)[1], 4u);
}

TEST_F(TableBasicTest, ReadYourOwnWrites) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Update(txn, 1, 0b0010, {0, 77, 0, 0}).ok());
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 1, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 77u);  // own uncommitted write visible to self
  // ... but not to others.
  Txn other = table_.Begin();
  std::vector<Value> out2;
  ASSERT_TRUE(table_.Read(other, 1, 0b0010, &out2).ok());
  EXPECT_EQ(out2[1], 10u);
  (void)txn.Commit();
  (void)other.Commit();
}

TEST_F(TableBasicTest, UncommittedInsertInvisibleToOthers) {
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Insert(txn, {5, 1, 2, 3}).ok());
  Txn other = table_.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table_.Read(other, 5, 0b1111, &out).IsNotFound());
  (void)txn.Commit();
  (void)other.Commit();
  // After commit it is visible.
  EXPECT_EQ(ReadRow(5, 0b0010)[1], 1u);
}

TEST_F(TableBasicTest, TimeTravelReadSeesEachVersion) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  std::vector<Timestamp> stamps;
  stamps.push_back(table_.txn_manager().clock().Tick());
  for (Value v : {100, 200, 300}) {
    ASSERT_TRUE(UpdateRow(1, 0b0010, {0, v, 0, 0}).ok());
    stamps.push_back(table_.txn_manager().clock().Tick());
  }
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[0], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 10u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[1], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 100u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[2], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 200u);
  ASSERT_TRUE(table_.ReadAsOf(1, stamps[3], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 300u);
}

// Lemma 3's guard must not fire for a column the record never
// updated: after an update of column 1 is committed and merged past
// the snapshot, column 2's base value is still the snapshot's value.
// A false positive burns every retry and prints "retries exhausted".
TEST_F(TableBasicTest, SnapshotReadOfNeverUpdatedColumnAfterMergeIsClean) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(table_.InsertMergeNow(0));
  Timestamp snap = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(UpdateRow(1, 0b0010, {0, 11, 0, 0}).ok());
  ASSERT_TRUE(table_.MergeRangeNow(0));

  testing::internal::CaptureStderr();
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, snap, 0b0110, &out).ok());
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out[1], 10u);
  EXPECT_EQ(out[2], 20u);
  EXPECT_EQ(err.find("retries exhausted"), std::string::npos) << err;

  ASSERT_TRUE(table_.ReadAsOf(1, kMaxTimestamp, 0b0110, &out).ok());
  EXPECT_EQ(out[1], 11u);
  EXPECT_EQ(out[2], 20u);
}

TEST_F(TableBasicTest, TimeTravelBeforeInsertIsNotFound) {
  Timestamp before = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  std::vector<Value> out;
  EXPECT_TRUE(table_.ReadAsOf(1, before, 0b1111, &out).IsNotFound());
}

TEST_F(TableBasicTest, StatsCountOperations) {
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(UpdateRow(1, 0b0010, {0, 11, 0, 0}).ok());
  ReadRow(1, 0b0010);
  MetricsSnapshot snap = table_.metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("lstore_inserts_total"), 1u);
  EXPECT_EQ(snap.CounterValue("lstore_updates_total"), 1u);
  EXPECT_GE(snap.CounterValue("lstore_reads_total"), 1u);
}

// Every point-read entry point counts one read per located record,
// visible or not; a key the index lacks counts nothing.
TEST_F(TableBasicTest, ReadsCountOncePerLocatedRecord) {
  Timestamp before_insert = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(InsertRow({1, 10, 20, 30}).ok());
  ASSERT_TRUE(InsertRow({2, 11, 21, 31}).ok());
  Counter* reads = table_.metrics()->GetCounter("lstore_reads_total");
  const uint64_t base = reads->value();
  std::vector<Value> out;
  std::vector<std::vector<Value>> rows;
  Txn txn = table_.Begin();
  EXPECT_TRUE(table_.Read(txn, 1, 0b0010, &out).ok());
  EXPECT_TRUE(table_.Read(txn, 99, 0b0010, &out).IsNotFound());
  EXPECT_EQ(reads->value() - base, 1u);
  EXPECT_TRUE(table_.SpeculativeRead(txn, 2, 0b0010, &out).ok());
  EXPECT_TRUE(table_.SpeculativeRead(txn, 99, 0b0010, &out).IsNotFound());
  EXPECT_EQ(reads->value() - base, 2u);
  EXPECT_TRUE(table_.ReadAsOf(1, table_.Now(), 0b0010, &out).ok());
  EXPECT_TRUE(table_.ReadAsOf(1, before_insert, 0b0010, &out).IsNotFound());
  EXPECT_TRUE(table_.ReadAsOf(99, table_.Now(), 0b0010, &out).IsNotFound());
  EXPECT_EQ(reads->value() - base, 4u);
  EXPECT_TRUE(table_.MultiRead(txn, {1, 99, 2}, 0b0010, &rows).IsNotFound());
  EXPECT_EQ(reads->value() - base, 6u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(TableBasicTest, SecondaryIndexSelectsAndReevaluates) {
  for (Value k = 0; k < 10; ++k) {
    ASSERT_TRUE(InsertRow({k, k % 3, 0, 0}).ok());
  }
  table_.CreateSecondaryIndex(1);
  std::vector<Value> keys;
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{0}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{0, 3, 6, 9}));
  // Update key 0's value: index keeps the stale posting but the
  // predicate re-evaluation must filter it (Section 3.1).
  ASSERT_TRUE(UpdateRow(0, 0b0010, {0, 2, 0, 0}).ok());
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{0}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{3, 6, 9}));
  // And the new value is findable.
  ASSERT_TRUE(table_.NewQuery().Where(1, Value{2}).Keys(&keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{0, 2, 5, 8}));
}

// --- lazy update metadata --------------------------------------------------
// A range allocates its Indirection column on its first update (one
// 8-byte word a slot); never-updated ranges carry none.

constexpr uint64_t kMetaArrayBytes = 64 * 8;  // SmallConfig range_size

// Loads `rows` rows {k, 10k, 20k, 30k} in one transaction.
void LoadRows(Table& t, Value rows) {
  std::vector<std::vector<Value>> batch;
  for (Value k = 0; k < rows; ++k) batch.push_back({k, 10 * k, 20 * k, 30 * k});
  Txn txn = t.Begin();
  ASSERT_TRUE(t.InsertBatch(txn, batch).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(TableBasicTest, NeverUpdatedTableHasNoUpdateMetadata) {
  LoadRows(table_, 4 * 64);
  for (bool merged : {false, true}) {
    if (merged) table_.FlushAll();
    for (Value k : {Value{0}, Value{63}, Value{64}, Value{255}}) {
      EXPECT_EQ(ReadRow(k, 0b1111),
                (std::vector<Value>{k, 10 * k, 20 * k, 30 * k}));
      std::vector<Value> out;
      ASSERT_TRUE(table_.ReadAsOf(k, table_.Now(), 0b0100, &out).ok());
      EXPECT_EQ(out[2], 20 * k);
      EXPECT_TRUE(table_.DebugChain(k, 1).empty());
    }
    uint64_t sum = 0, rows = 0;
    ASSERT_TRUE(table_.NewQuery().Sum(3, &sum, &rows).ok());
    EXPECT_EQ(rows, 256u);
    EXPECT_EQ(sum, 30u * 255 * 256 / 2);
    EXPECT_EQ(table_.UpdateMetaBytes(), 0u);
  }
}

TEST_F(TableBasicTest, UpdatesInstallMetadataOnlyInUpdatedRanges) {
  LoadRows(table_, 5 * 64);
  table_.FlushAll();
  // Ranges 1 and 3 take updates (and a delete); 0, 2 and 4 stay clean.
  ASSERT_TRUE(UpdateRow(70, 0b0010, {0, 7, 0, 0}).ok());
  ASSERT_TRUE(UpdateRow(71, 0b0100, {0, 0, 8, 0}).ok());
  ASSERT_TRUE(UpdateRow(200, 0b1000, {0, 0, 0, 9}).ok());
  Txn del = table_.Begin();
  ASSERT_TRUE(table_.Delete(del, 250).ok());
  ASSERT_TRUE(del.Commit().ok());
  EXPECT_EQ(table_.UpdateMetaBytes(), 2 * kMetaArrayBytes);
  EXPECT_EQ(
      table_.metrics()->Snapshot().GaugeValue("lstore_update_meta_bytes"),
      static_cast<int64_t>(2 * kMetaArrayBytes));

  EXPECT_EQ(ReadRow(70, 0b1111), (std::vector<Value>{70, 7, 1400, 2100}));
  EXPECT_EQ(ReadRow(71, 0b1111), (std::vector<Value>{71, 710, 8, 2130}));
  EXPECT_EQ(ReadRow(200, 0b1111), (std::vector<Value>{200, 2000, 4000, 9}));
  Status s;
  ReadRow(250, 0b0010, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(ReadRow(10, 0b0010)[1], 100u);
  ASSERT_EQ(table_.DebugChain(70, 1).size(), 2u);  // update + pre-image
  EXPECT_EQ(table_.DebugChain(70, 1)[0].col_value, 7u);
  uint64_t rows = 0;
  ASSERT_TRUE(table_.NewQuery().Count(&rows).ok());
  EXPECT_EQ(rows, 5u * 64 - 1);
  // Merging the updates keeps the arrays (the chain heads live there).
  table_.FlushAll();
  EXPECT_EQ(table_.UpdateMetaBytes(), 2 * kMetaArrayBytes);
  EXPECT_EQ(ReadRow(70, 0b0010)[1], 7u);
}

TEST(LazyUpdateMetaTest, RacingFirstUpdatesOfDistinctSlotsAllLand) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    Table table("t", Schema(4), SmallConfig());
    LoadRows(table, 64);
    std::barrier start(kThreads);
    std::vector<std::thread> workers;
    std::atomic<int> committed{0};
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        const Value key = 8 * w + round % 8;
        start.arrive_and_wait();
        Txn txn = table.Begin();
        if (table.Update(txn, key, 0b0010, {0, 1000 + key, 0, 0}).ok() &&
            txn.Commit().ok()) {
          committed.fetch_add(1);
        }
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_EQ(committed.load(), kThreads);
    EXPECT_EQ(table.UpdateMetaBytes(), kMetaArrayBytes);
    for (int w = 0; w < kThreads; ++w) {
      const Value key = 8 * w + round % 8;
      Txn txn = table.Begin();
      std::vector<Value> out;
      ASSERT_TRUE(table.Read(txn, key, 0b0110, &out).ok());
      EXPECT_EQ(out[1], 1000 + key);
      EXPECT_EQ(out[2], 20 * key);
      ASSERT_TRUE(txn.Commit().ok());
    }
  }
}

TEST(LazyUpdateMetaTest, RacingFirstUpdatesOfOneSlotAbortOne) {
  for (int round = 0; round < 20; ++round) {
    Table table("t", Schema(4), SmallConfig());
    LoadRows(table, 64);
    // Both sessions stay open until both have tried: whichever comes
    // second meets either the latch or the first one's uncommitted
    // version.
    std::barrier start(2), tried(2);
    std::atomic<int> ok{0}, aborted{0};
    std::vector<std::thread> workers;
    for (Value v : {Value{1}, Value{2}}) {
      workers.emplace_back([&, v] {
        Txn txn = table.Begin();
        start.arrive_and_wait();
        Status s = table.Update(txn, 5, 0b0010, {0, v, 0, 0});
        tried.arrive_and_wait();
        if (s.ok()) {
          if (txn.Commit().ok()) ok.fetch_add(1);
        } else {
          if (s.IsAborted()) aborted.fetch_add(1);
          txn.Abort();
        }
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_EQ(ok.load(), 1);
    EXPECT_EQ(aborted.load(), 1);
    EXPECT_EQ(
        table.metrics()->GetCounter("lstore_ww_conflicts_total")->value(), 1u);
    EXPECT_EQ(table.UpdateMetaBytes(), kMetaArrayBytes);
  }
}

TEST(LazyUpdateMetaTest, ReopenRebuildsMetadataOfUpdatedRangesOnly) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_lazy_update_meta";
  std::filesystem::remove_all(dir);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(4), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    LoadRows(*t, 6 * 64);
    t->FlushAll();
    // One update before the checkpoint (range 1), one after (range 4):
    // the reopen meets one in the checkpoint and one in the log tail.
    Txn a = db->Begin();
    ASSERT_TRUE(t->Update(a, 100, 0b0010, {0, 5, 0, 0}).ok());
    ASSERT_TRUE(a.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    Txn b = db->Begin();
    ASSERT_TRUE(t->Update(b, 300, 0b0100, {0, 0, 6, 0}).ok());
    ASSERT_TRUE(b.Commit().ok());
    EXPECT_EQ(t->UpdateMetaBytes(), 2 * kMetaArrayBytes);
  }
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    Table* t = db->GetTable("t");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->UpdateMetaBytes(), 2 * kMetaArrayBytes);
    Txn txn = t->Begin();
    std::vector<Value> out;
    ASSERT_TRUE(t->Read(txn, 100, 0b0110, &out).ok());
    EXPECT_EQ(out[1], 5u);
    EXPECT_EQ(out[2], 2000u);
    ASSERT_TRUE(t->Read(txn, 300, 0b0110, &out).ok());
    EXPECT_EQ(out[1], 3000u);
    EXPECT_EQ(out[2], 6u);
    ASSERT_TRUE(t->Read(txn, 200, 0b0110, &out).ok());
    EXPECT_EQ(out[1], 2000u);
    ASSERT_TRUE(txn.Commit().ok());
    uint64_t sum = 0;
    ASSERT_TRUE(t->NewQuery().Sum(1, &sum).ok());
    EXPECT_EQ(sum, 10u * 383 * 384 / 2 - 1000 + 5);
  }
  std::filesystem::remove_all(dir);
}

// A table wider than 39 columns keeps the ever-updated bits of columns
// 39 and up beside the Indirection word. Updates of an in-word column
// (1, and 38, the last one) and of side-array columns (39, the first,
// and 55, the last) each take one pre-image and stay readable as of
// every earlier time, through an update merge and a durable reopen.
TEST(LazyUpdateMetaTest, WideTableKeepsEveryColumnsHistory) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_wide_update_meta";
  std::filesystem::remove_all(dir);
  constexpr Value kKey = 5;
  const ColumnId cols[] = {1, 2, 38, 39, 55};  // 2 is never updated
  ColumnMask read_mask = 0;
  for (ColumnId c : cols) read_mask |= 1ull << c;
  // The row as of each stamp, one stamp before the first update and
  // one after each.
  std::vector<Timestamp> stamps;
  std::vector<std::vector<Value>> rows;
  auto check = [&](Table* t, const char* phase) {
    for (size_t i = 0; i < stamps.size(); ++i) {
      std::vector<Value> out;
      ASSERT_TRUE(t->ReadAsOf(kKey, stamps[i], read_mask, &out).ok());
      for (ColumnId c : cols) {
        EXPECT_EQ(out[c], rows[i][c]) << phase << " as of " << i << " " << c;
      }
    }
    Txn txn = t->Begin();
    std::vector<Value> out;
    ASSERT_TRUE(t->Read(txn, kKey, read_mask, &out).ok());
    for (ColumnId c : cols) {
      EXPECT_EQ(out[c], rows.back()[c]) << phase << " latest " << c;
    }
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(t->UpdateMetaBytes(), 64u * 12);
  };
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_TRUE(db->CreateTable("w", Schema(kMaxColumns), SmallConfig()).ok());
    Table* t = db->GetTable("w");
    std::vector<std::vector<Value>> batch;
    for (Value k = 0; k < 8; ++k) {
      batch.emplace_back(kMaxColumns);
      batch.back()[0] = k;
      for (ColumnId c = 1; c < kMaxColumns; ++c) {
        batch.back()[c] = 1000 * k + c;
      }
    }
    Txn load = db->Begin();
    ASSERT_TRUE(t->InsertBatch(load, batch).ok());
    ASSERT_TRUE(load.Commit().ok());
    t->FlushAll();
    rows.push_back(batch[kKey]);
    stamps.push_back(db->ReadTimestamp());
    // The last update rewrites two side-array columns already updated:
    // it takes no pre-image.
    for (ColumnMask mask : {1ull << 1, 1ull << 38, 1ull << 39, 1ull << 55,
                            1ull << 39 | 1ull << 55}) {
      std::vector<Value> row = rows.back();
      for (BitIter it(mask); it; ++it) row[*it] += 100;
      Txn txn = db->Begin();
      ASSERT_TRUE(t->Update(txn, kKey, mask, row).ok());
      ASSERT_TRUE(txn.Commit().ok());
      rows.push_back(row);
      stamps.push_back(db->ReadTimestamp());
    }
    // Four pre-images and five versions.
    EXPECT_EQ(t->DebugChain(kKey, 39).size(), 9u);
    check(t, "tail");
    t->FlushAll();
    check(t, "merged");
  }
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    Table* t = db->GetTable("w");
    ASSERT_NE(t, nullptr);
    check(t, "reopened");
  }
  std::filesystem::remove_all(dir);
}


// Base segments code each value as its offset from base + stride·slot.
// Keys inserted one row at a time in ascending order climb with the
// slot, and so do their Start Times: both columns pack at ~0 bits. The
// same keys shuffled within each range pay for their span in the key
// column. Random keys loaded by one batch (one Start Time) fit no line
// and keep the bytes of a build without strides. Reads, time travel and
// sums stay exact before the merge, after it and after a durable reopen.
TEST(StridedBaseTest, InsertOrderedColumnsPackOnALine) {
  constexpr Value kRange = 256, kRows = 4 * kRange;
  TableConfig cfg = SmallConfig();
  cfg.range_size = cfg.insert_range_size = kRange;
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_strided_base";
  std::filesystem::remove_all(dir);
  constexpr Value kLow44 = (Value{1} << 44) - 1;
  auto ordered = [](Value i) { return 1000 + i; };
  // 97 is odd, so i * 97 mod kRange permutes each range's keys.
  auto shuffled = [](Value i) {
    return 1000 + i / kRange * kRange + i * 97 % kRange;
  };
  auto random = [](Value i) { return (i * 0xbf58476d1ce4e5b9ull) & kLow44; };
  auto payload = [](Value i) { return (i * 0x9e3779b97f4a7c15ull) & kLow44; };
  auto row = [&](Value key, Value i) {
    return std::vector<Value>{key, payload(i), payload(i) + 1};
  };
  Timestamp mid = 0;  // half of "ordered" loaded, nothing of "random"
  auto check = [&](Database* db, const char* phase) {
    for (const char* name : {"ordered", "random"}) {
      SCOPED_TRACE(std::string(phase) + " " + name);
      Table* t = db->GetTable(name);
      ASSERT_NE(t, nullptr);
      const bool is_ordered = name == std::string("ordered");
      uint64_t want_sum = 0;
      Txn txn = t->Begin();
      for (Value i = 0; i < kRows; ++i) {
        const Value key = is_ordered ? ordered(i) : random(i);
        std::vector<Value> out;
        ASSERT_TRUE(t->Read(txn, key, 0b111, &out).ok()) << i;
        ASSERT_EQ(out, row(key, i)) << i;
        Status s = t->ReadAsOf(key, mid, 0b111, &out);
        ASSERT_EQ(s.ok(), is_ordered && i < kRows / 2) << i;
        want_sum += payload(i);
      }
      ASSERT_TRUE(txn.Commit().ok());
      uint64_t sum = 0, n = 0;
      ASSERT_TRUE(t->NewQuery().Sum(1, &sum, &n).ok());
      EXPECT_EQ(sum, want_sum);
      EXPECT_EQ(n, kRows);
    }
  };
  uint64_t merged_bytes[2] = {0, 0};  // "ordered", "random"
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    for (const char* name : {"ordered", "shuffled", "random"}) {
      ASSERT_TRUE(db->CreateTable(name, Schema(3), cfg).ok());
    }
    for (const char* name : {"ordered", "shuffled"}) {
      const bool in_order = name == std::string("ordered");
      Table* t = db->GetTable(name);
      for (Value i = 0; i < kRows; ++i) {
        Txn txn = t->Begin();
        const Value key = in_order ? ordered(i) : shuffled(i);
        ASSERT_TRUE(t->Insert(txn, row(key, i)).ok());
        ASSERT_TRUE(txn.Commit().ok());
        if (in_order && i + 1 == kRows / 2) mid = db->ReadTimestamp();
      }
    }
    std::vector<std::vector<Value>> batch;
    for (Value i = 0; i < kRows; ++i) batch.push_back(row(random(i), i));
    Txn load = db->Begin();
    ASSERT_TRUE(db->GetTable("random")->InsertBatch(load, batch).ok());
    ASSERT_TRUE(load.Commit().ok());
    check(db.get(), "tail");
    for (const char* name : {"ordered", "shuffled", "random"}) {
      db->GetTable(name)->FlushAll();
    }
    check(db.get(), "merged");
    const uint64_t shuffled_bytes =
        db->GetTable("shuffled")->BaseResidentBytes();
    merged_bytes[0] = db->GetTable("ordered")->BaseResidentBytes();
    merged_bytes[1] = db->GetTable("random")->BaseResidentBytes();
    // Per range, only the key column differs: a 24-byte line (base,
    // null code, stride) against an 8-bit stride-0 frame.
    constexpr uint64_t kFrame8 = 16 + kRange;
    EXPECT_EQ(shuffled_bytes - merged_bytes[0], 4 * (kFrame8 - 24));
    // Random: three 44-bit stride-0 frames and three one-entry
    // dictionaries (Start Time, Last Updated, schema encoding) per
    // range, as without strides.
    constexpr uint64_t kFrame44 = 16 + kRange * 44 / 8;
    EXPECT_EQ(merged_bytes[1], 4 * (3 * kFrame44 + 3 * 8));
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    check(db.get(), "reopened");
    EXPECT_EQ(db->GetTable("ordered")->BaseResidentBytes(), merged_bytes[0]);
    EXPECT_EQ(db->GetTable("random")->BaseResidentBytes(), merged_bytes[1]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lstore
