// Historic compression tests (Section 4.3 / Table 6): version
// inlining, base-RID ordering, delta compression, time-travel reads
// through the compressed store, and tail-page reclamation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/historic.h"
#include "core/table.h"

namespace lstore {
namespace {

TableConfig Config() {
  TableConfig cfg;
  cfg.range_size = 32;
  cfg.insert_range_size = 32;
  cfg.tail_page_slots = 8;
  cfg.enable_merge_thread = false;
  return cfg;
}

TEST(HistoricStoreTest, BuildAndDecodeSingleSlot) {
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> per_slot;
  per_slot[3] = {
      {1, 100, 0b0010, 0b0010, {500}},
      {2, 200, 0b0010, 0b0010, {501}},
      {5, 300, 0b0110, 0b0110, {502, 600}},
  };
  std::unique_ptr<HistoricStore> store(
      HistoricStore::Build(5, per_slot, nullptr, 4));
  EXPECT_EQ(store->boundary(), 5u);
  EXPECT_EQ(store->num_records(), 1u);
  EXPECT_EQ(store->num_versions(), 3u);
  auto versions = store->VersionsOf(3);
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].seq, 1u);
  EXPECT_EQ(versions[0].values, (std::vector<Value>{500}));
  EXPECT_EQ(versions[2].seq, 5u);
  EXPECT_EQ(versions[2].values, (std::vector<Value>{502, 600}));
  EXPECT_TRUE(store->VersionsOf(99).empty());
}

TEST(HistoricStoreTest, ResolveColumnHonorsSeqAndTime) {
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> per_slot;
  per_slot[0] = {
      {1, 100, 0b0010, 0b0010, {10}},
      {3, 300, 0b0010, 0b0010, {30}},
      {4, 350, 0b0010 | kSupersededFlag, 0b0010, {40}},
  };
  std::unique_ptr<HistoricStore> store(
      HistoricStore::Build(4, per_slot, nullptr, 4));
  const auto versions = store->VersionsOf(0);
  auto newest = [&](uint32_t at_or_below, Timestamp as_of) {
    return HistoricStore::Newest(versions, at_or_below, as_of);
  };
  // Entry at seq 3, as_of after both: newest wins.
  ASSERT_NE(newest(3, 1000), nullptr);
  EXPECT_EQ(newest(3, 1000)->values[0], 30u);
  // A superseded version is skipped.
  EXPECT_EQ(newest(4, 1000)->seq, 3u);
  // Entry at seq 2 (between versions): only seq 1 qualifies.
  EXPECT_EQ(newest(2, 1000)->values[0], 10u);
  // as_of before version 3's start: version 1.
  EXPECT_EQ(newest(3, 250)->values[0], 10u);
  // Nothing at or below seq 0, nor visible before version 1's start.
  EXPECT_EQ(newest(0, 1000), nullptr);
  EXPECT_EQ(newest(3, 100), nullptr);
  // Column never materialized: the newest version does not carry it.
  EXPECT_EQ(newest(3, 1000)->mask & 0b0100, 0u);
}

TEST(HistoricStoreTest, RebuildCarriesPreviousContents) {
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> first;
  first[1] = {{1, 100, 0b0010, 0b0010, {11}}};
  std::unique_ptr<HistoricStore> a(
      HistoricStore::Build(1, first, nullptr, 4));
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> second;
  second[1] = {{2, 200, 0b0010, 0b0010, {12}}};
  second[2] = {{3, 300, 0b0100, 0b0100, {20}}};
  std::unique_ptr<HistoricStore> b(
      HistoricStore::Build(3, second, a.get(), 4));
  EXPECT_EQ(b->num_versions(), 3u);
  auto versions = b->VersionsOf(1);
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].values[0], 11u);
  EXPECT_EQ(versions[1].values[0], 12u);
}

TEST(HistoricStoreTest, DeltaCompressionShrinksSimilarVersions) {
  // Version inlining "enables delta compression among the different
  // versions" — a counter-like column should encode in ~2 bytes per
  // version instead of 8.
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> per_slot;
  constexpr uint32_t kVersions = 500;
  std::vector<HistoricStore::Version> versions;
  for (uint32_t i = 0; i < kVersions; ++i) {
    versions.push_back({i + 1, 1000 + i, 0b0010, 0b0010,
                        {1000000000 + i}});
  }
  per_slot[0] = versions;
  std::unique_ptr<HistoricStore> store(
      HistoricStore::Build(kVersions, per_slot, nullptr, 4));
  EXPECT_LT(store->byte_size(), kVersions * 8u);
  auto out = store->VersionsOf(0);
  ASSERT_EQ(out.size(), kVersions);
  EXPECT_EQ(out[123].values[0], 1000000123u);
}

class TableHistoricTest : public ::testing::Test {
 protected:
  TableHistoricTest() : table_("h", Schema(4), Config()) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < 32; ++k) {
      EXPECT_TRUE(table_.Insert(txn, {k, k * 10, k * 100, k * 1000}).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
    EXPECT_TRUE(table_.InsertMergeNow(0));
  }

  void UpdateKey(Value key, Value v) {
    Txn txn = table_.Begin();
    std::vector<Value> row(4, 0);
    row[1] = v;
    ASSERT_TRUE(table_.Update(txn, key, 0b0010, row).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  Table table_;
};

TEST_F(TableHistoricTest, CompressionRequiresPriorMerge) {
  UpdateKey(1, 11);
  // Nothing merged yet: nothing to compress.
  EXPECT_EQ(table_.CompressHistoricNow(0), 0u);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_GT(table_.CompressHistoricNow(0), 0u);
  EXPECT_EQ(table_.metrics()
                ->GetCounter("lstore_historic_compressions_total")
                ->value(),
            1u);
}

TEST_F(TableHistoricTest, TimeTravelThroughCompressedHistory) {
  std::vector<Timestamp> stamps;
  stamps.push_back(table_.txn_manager().clock().Tick());
  for (int i = 0; i < 6; ++i) {
    UpdateKey(2, 100 + i);
    stamps.push_back(table_.txn_manager().clock().Tick());
  }
  ASSERT_TRUE(table_.MergeRangeNow(0));
  ASSERT_GT(table_.CompressHistoricNow(0), 0u);
  table_.epochs().TryReclaim();  // raw tail pages reclaimed

  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(2, stamps[0], 0b0010, &out).ok());
  EXPECT_EQ(out[1], 20u);  // original value via the pre-image snapshot
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(table_.ReadAsOf(2, stamps[i + 1], 0b0010, &out).ok());
    EXPECT_EQ(out[1], static_cast<Value>(100 + i)) << "as-of " << i;
  }
  // Latest reads are unaffected.
  Txn txn = table_.Begin();
  ASSERT_TRUE(table_.Read(txn, 2, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 105u);
  (void)txn.Commit();
}

TEST_F(TableHistoricTest, UpdatesContinueAfterCompression) {
  for (int i = 0; i < 4; ++i) UpdateKey(3, 200 + i);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  ASSERT_GT(table_.CompressHistoricNow(0), 0u);
  table_.epochs().TryReclaim();
  UpdateKey(3, 999);  // new tail records beyond the boundary
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 3, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 999u);
  (void)txn.Commit();
}

TEST_F(TableHistoricTest, SecondCompressionExtendsTheStore) {
  for (int i = 0; i < 3; ++i) UpdateKey(4, 300 + i);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  size_t first = table_.CompressHistoricNow(0);
  ASSERT_GT(first, 0u);
  Timestamp mid = table_.txn_manager().clock().Tick();
  for (int i = 0; i < 3; ++i) UpdateKey(4, 400 + i);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  size_t second = table_.CompressHistoricNow(0);
  ASSERT_GT(second, 0u);
  table_.epochs().TryReclaim();
  // Both eras of history remain reachable.
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(4, mid, 0b0010, &out).ok());
  EXPECT_EQ(out[1], 302u);
}

TEST_F(TableHistoricTest, DeletedRecordHistoryRetained) {
  UpdateKey(5, 55);
  {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Delete(txn, 5).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Timestamp after_delete = table_.txn_manager().clock().Tick();
  ASSERT_TRUE(table_.MergeRangeNow(0));
  ASSERT_GT(table_.CompressHistoricNow(0), 0u);
  table_.epochs().TryReclaim();
  std::vector<Value> out;
  EXPECT_TRUE(table_.ReadAsOf(5, after_delete, 0b0010, &out).IsNotFound());
}

TEST(HistoricConcurrencyTest, CompressionRacesReadersAndWriters) {
  // One range of counters: writers bump their own keys while a
  // maintenance thread merges and compresses the range in a loop, and
  // readers check every latest read and every read at a past snapshot.
  constexpr Value kKeys = 32;
  constexpr int kWriters = 2;
  constexpr int kBumpsPerWriter = 10000;
  constexpr Value kAtSnapshot = 3;
  Table table("h", Schema(2), Config());
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, 0}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(table.InsertMergeNow(0));
  for (Value v = 1; v <= kAtSnapshot; ++v) {
    Txn txn = table.Begin();
    for (Value k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(table.Update(txn, k, 0b10, {0, v}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  const Timestamp snapshot = table.Now();

  // committed[k]: the newest value known committed; started[k]: the
  // newest value a writer began to write.
  std::vector<std::atomic<Value>> committed(kKeys), started(kKeys);
  for (Value k = 0; k < kKeys; ++k) {
    committed[k].store(kAtSnapshot);
    started[k].store(kAtSnapshot);
  }
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  auto fail = [&failures](const char* what, Value key, Value got) {
    if (failures.fetch_add(1) < 5) {
      ADD_FAILURE() << what << ": key " << key << " read " << got;
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kBumpsPerWriter; ++i) {
        const Value key =
            static_cast<Value>(w + kWriters * (i % (kKeys / kWriters)));
        const Value next = committed[key].load() + 1;
        started[key].store(next);
        Txn txn = table.Begin();
        if (table.Update(txn, key, 0b10, {0, next}).ok() && txn.Commit().ok()) {
          committed[key].store(next);
        } else {
          fail("update refused", key, next);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      table.MergeRangeNow(0);
      table.CompressHistoricNow(0);
      table.epochs().TryReclaim();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<Value> last_seen(kKeys, 0);
      std::vector<Value> row;
      for (Value i = r; writers_left.load() > 0; ++i) {
        const Value key = i % kKeys;
        const Value low = committed[key].load();
        Txn txn = table.Begin();
        if (!table.Read(txn, key, 0b10, &row).ok()) {
          fail("live key not found", key, 0);
          continue;
        }
        (void)txn.Commit();
        const Value high = started[key].load();
        if (row[1] < low || row[1] > high) {
          fail("uncommitted value", key, row[1]);
        }
        if (row[1] < last_seen[key]) fail("latest read went back", key, row[1]);
        last_seen[key] = row[1];
        if (!table.ReadAsOf(key, snapshot, 0b10, &row).ok()) {
          fail("snapshot read not found", key, 0);
        } else if (row[1] != kAtSnapshot) {
          fail("snapshot read changed", key, row[1]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(table.metrics()
                ->GetCounter("lstore_historic_compressions_total")
                ->value(),
            0u);
  // After the race, every key reads its last committed value.
  std::vector<Value> row;
  for (Value k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(table.ReadAsOf(k, table.Now(), 0b10, &row).ok());
    EXPECT_EQ(row[1], committed[k].load()) << k;
  }
}

}  // namespace
}  // namespace lstore
