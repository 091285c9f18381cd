// Historic compression tests (Section 4.3 / Table 6): version
// inlining, base-RID ordering, delta compression, time-travel reads
// through the compressed store, and tail-page reclamation.

#include <gtest/gtest.h>

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
  };
  std::unique_ptr<HistoricStore> store(
      HistoricStore::Build(3, per_slot, nullptr, 4));
  Value v = 0;
  bool deleted = false;
  // Entry at seq 3, as_of after both: newest wins.
  ASSERT_TRUE(store->ResolveColumn(0, 3, 1, 1000, &v, &deleted));
  EXPECT_EQ(v, 30u);
  // Entry at seq 2 (between versions): only seq 1 qualifies.
  ASSERT_TRUE(store->ResolveColumn(0, 2, 1, 1000, &v, &deleted));
  EXPECT_EQ(v, 10u);
  // as_of before version 3's start: version 1.
  ASSERT_TRUE(store->ResolveColumn(0, 3, 1, 250, &v, &deleted));
  EXPECT_EQ(v, 10u);
  // Column never materialized.
  EXPECT_FALSE(store->ResolveColumn(0, 3, 2, 1000, &v, &deleted));
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

}  // namespace
}  // namespace lstore
