// The paper's running examples, encoded as integration tests:
// Table 2 (update & delete), Table 3 (insert with concurrent update),
// Table 4 (relaxed merge), Table 5 (TPS interpretation & cumulation
// reset). Keys k1..k3 map to 1..3; columns A, B, C map to 1..3.

#include <gtest/gtest.h>

#include "core/table.h"

namespace lstore {
namespace {

TableConfig PaperConfig() {
  TableConfig cfg;
  cfg.range_size = 8;  // k1..k3 in one range, like the paper's ranges
  cfg.insert_range_size = 8;
  cfg.tail_page_slots = 8;
  cfg.enable_merge_thread = false;
  cfg.cumulative_updates = true;
  return cfg;
}

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() : table_("paper", Schema(4), PaperConfig()) {}

  void Commit1(std::function<Status(Txn&)> op) {
    Txn txn = table_.Begin();
    ASSERT_TRUE(op(txn).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  void Insert(Value key, Value a, Value b, Value c) {
    Commit1([&](Txn& t) { return table_.Insert(t, {key, a, b, c}); });
  }
  void Update(Value key, ColumnMask mask, Value a, Value b, Value c) {
    Commit1([&](Txn& t) { return table_.Update(t, key, mask, {0, a, b, c}); });
  }

  std::vector<Value> ReadAll(Value key) {
    Txn txn = table_.Begin();
    std::vector<Value> out;
    Status s = table_.Read(txn, key, 0b1111, &out);
    (void)txn.Commit();
    if (!s.ok()) return {};
    return out;
  }

  Table table_;
};

// Table 2: b2 (=key 2) updated on A twice more after the first update,
// then on C; b3 updated on C; b1 deleted.
TEST_F(PaperExampleTest, Table2UpdateAndDeleteProcedure) {
  Insert(1, 101, 201, 301);  // b1: a1 b1 c1
  Insert(2, 102, 202, 302);  // b2
  Insert(3, 103, 203, 303);  // b3
  EXPECT_EQ(table_.RangeTailLength(0), 0u);

  // First update of column A of b2 creates TWO tail records (t1
  // pre-image snapshot + t2 new value).
  Update(2, 0b0010, 1021, 0, 0);
  EXPECT_EQ(table_.RangeTailLength(0), 2u);
  // Subsequent update of the same column creates ONE record (t3).
  Update(2, 0b0010, 1022, 0, 0);
  EXPECT_EQ(table_.RangeTailLength(0), 3u);
  // First update of C of b2: snapshot t4 + cumulative t5.
  Update(2, 0b1000, 0, 0, 3021);
  EXPECT_EQ(table_.RangeTailLength(0), 5u);
  // First update of C of b3: t6 + t7.
  Update(3, 0b1000, 0, 0, 3031);
  EXPECT_EQ(table_.RangeTailLength(0), 7u);
  // Delete b1 = t8, a single tail record with no snapshot (the paper's
  // default delete design).
  Commit1([&](Txn& t) { return table_.Delete(t, 1); });
  EXPECT_EQ(table_.RangeTailLength(0), 8u);

  // Resulting visible table state matches Table 2.
  EXPECT_EQ(ReadAll(2), (std::vector<Value>{2, 1022, 202, 3021}));
  EXPECT_EQ(ReadAll(3), (std::vector<Value>{3, 103, 203, 3031}));
  EXPECT_TRUE(ReadAll(1).empty());  // deleted
}

// Table 2's time-travel semantics: every intermediate version of b2 is
// reachable through the lineage.
TEST_F(PaperExampleTest, Table2AllVersionsReachable) {
  Insert(2, 102, 202, 302);
  Timestamp t0 = table_.txn_manager().clock().Tick();
  Update(2, 0b0010, 1021, 0, 0);
  Timestamp t1 = table_.txn_manager().clock().Tick();
  Update(2, 0b0010, 1022, 0, 0);
  Timestamp t2 = table_.txn_manager().clock().Tick();
  Update(2, 0b1000, 0, 0, 3021);
  Timestamp t3 = table_.txn_manager().clock().Tick();

  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(2, t0, 0b1110, &out).ok());
  EXPECT_EQ(out[1], 102u);
  EXPECT_EQ(out[3], 302u);
  ASSERT_TRUE(table_.ReadAsOf(2, t1, 0b1110, &out).ok());
  EXPECT_EQ(out[1], 1021u);
  EXPECT_EQ(out[3], 302u);
  ASSERT_TRUE(table_.ReadAsOf(2, t2, 0b1110, &out).ok());
  EXPECT_EQ(out[1], 1022u);
  EXPECT_EQ(out[3], 302u);
  ASSERT_TRUE(table_.ReadAsOf(2, t3, 0b1110, &out).ok());
  EXPECT_EQ(out[1], 1022u);
  EXPECT_EQ(out[3], 3021u);
}

// Table 3: inserts land in table-level tail pages; a recently inserted
// record can immediately be updated through the regular tail path.
TEST_F(PaperExampleTest, Table3InsertWithConcurrentUpdates) {
  Insert(7, 107, 207, 307);  // tt7
  Insert(8, 108, 208, 308);  // tt8
  Insert(9, 109, 209, 309);  // tt9
  // Update C of b8 (c8 -> c81): snapshot t13 + new t14.
  Update(8, 0b1000, 0, 0, 3081);
  EXPECT_EQ(table_.RangeTailLength(0), 2u);
  // Update A of b9 (a9 -> a91): t15 + t16.
  Update(9, 0b0010, 1091, 0, 0);
  EXPECT_EQ(table_.RangeTailLength(0), 4u);

  EXPECT_EQ(ReadAll(8), (std::vector<Value>{8, 108, 208, 3081}));
  EXPECT_EQ(ReadAll(9), (std::vector<Value>{9, 1091, 209, 309}));
  // And the insert-merge afterwards preserves both inserts + updates.
  ASSERT_TRUE(table_.InsertMergeNow(0));
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_EQ(ReadAll(8), (std::vector<Value>{8, 108, 208, 3081}));
  EXPECT_EQ(ReadAll(9), (std::vector<Value>{9, 1091, 209, 309}));
}

// Table 4: merging the first seven tail records consolidates only the
// LATEST version of each record (t5 and t7 participate; t1-t4, t6 are
// discarded) and sets TPS = 7.
TEST_F(PaperExampleTest, Table4RelaxedMerge) {
  Insert(1, 101, 201, 301);
  Insert(2, 102, 202, 302);
  Insert(3, 103, 203, 303);
  ASSERT_TRUE(table_.InsertMergeNow(0));

  Update(2, 0b0010, 1021, 0, 0);   // t1*, t2
  Update(2, 0b0010, 1022, 0, 0);   // t3
  Update(2, 0b1000, 0, 0, 3021);   // t4*, t5 (cumulative: a22 + c21)
  Update(3, 0b1000, 0, 0, 3031);   // t6*, t7
  ASSERT_EQ(table_.RangeTailLength(0), 7u);

  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_EQ(table_.RangeTps(0), 7u);

  // Merged pages hold the Table 4 result; reads are now served from
  // base pages without chain hops.
  Counter* hops = table_.metrics()->GetCounter("lstore_tail_chain_hops_total");
  uint64_t hops_before = hops->value();
  EXPECT_EQ(ReadAll(1), (std::vector<Value>{1, 101, 201, 301}));
  EXPECT_EQ(ReadAll(2), (std::vector<Value>{2, 1022, 202, 3021}));
  EXPECT_EQ(ReadAll(3), (std::vector<Value>{3, 103, 203, 3031}));
  EXPECT_EQ(hops->value(), hops_before);
}

// Table 5: updates after the merge (with cumulation reset at TPS) are
// combined with merged pages: b2 gets B (t9*, t10) then A+B cumulative
// (t12), b3 gets C (t11).
TEST_F(PaperExampleTest, Table5PostMergeUpdatesAndTpsInterpretation) {
  Insert(1, 101, 201, 301);
  Insert(2, 102, 202, 302);
  Insert(3, 103, 203, 303);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  Update(2, 0b0010, 1021, 0, 0);
  Update(2, 0b0010, 1022, 0, 0);
  Update(2, 0b1000, 0, 0, 3021);
  Update(3, 0b1000, 0, 0, 3031);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  ASSERT_EQ(table_.RangeTps(0), 7u);

  Update(2, 0b0100, 0, 2021, 0);   // t9*, t10 — post-merge, reset carry
  Update(3, 0b1000, 0, 0, 3032);   // t11
  Update(2, 0b0010, 1023, 0, 0);   // t12: cumulative carries B, not C
  EXPECT_EQ(table_.RangeTailLength(0), 11u);

  // Full record reconstruction mixes merged pages (C=3021 via TPS)
  // with post-merge tails (A=1023, B=2021).
  EXPECT_EQ(ReadAll(2), (std::vector<Value>{2, 1023, 2021, 3021}));
  EXPECT_EQ(ReadAll(3), (std::vector<Value>{3, 103, 203, 3032}));
}

// Deletions expressed as in Table 2 (t8): the record vanishes for new
// queries, remains for older snapshots, and merge preserves that.
TEST_F(PaperExampleTest, DeleteThenMergeKeepsHistoryAccessible) {
  Insert(1, 101, 201, 301);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  Timestamp before = table_.txn_manager().clock().Tick();
  Commit1([&](Txn& t) { return table_.Delete(t, 1); });
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_TRUE(ReadAll(1).empty());
  std::vector<Value> out;
  ASSERT_TRUE(table_.ReadAsOf(1, before, 0b1111, &out).ok());
  EXPECT_EQ(out[1], 101u);
}

// Section 2.2: "at most 2-hop away access to the latest version".
TEST_F(PaperExampleTest, TwoHopAccessToLatestVersion) {
  Insert(2, 102, 202, 302);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (int i = 0; i < 20; ++i) Update(2, 0b0010, 2000 + i, 0, 0);
  // With cumulative updates the latest version is fully materialized
  // in the newest tail record: exactly one hop from the base record.
  Counter* chain = table_.metrics()->GetCounter("lstore_tail_chain_hops_total");
  uint64_t hops_before = chain->value();
  EXPECT_EQ(ReadAll(2)[1], 2019u);
  uint64_t hops = chain->value() - hops_before;
  EXPECT_LE(hops, 2u);
}

}  // namespace
}  // namespace lstore
