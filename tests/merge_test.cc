// Merge tests (Section 4): Algorithm 1 correctness, in-page lineage
// (TPS), contention-free behaviour, insert merges, epoch reclamation,
// and independent per-column merges (Lemma 3 / Theorem 2).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

TableConfig MergeConfig(bool merge_thread = false) {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 16;
  cfg.enable_merge_thread = merge_thread;
  return cfg;
}

class MergeTest : public ::testing::Test {
 protected:
  MergeTest() : table_("t", Schema(4), MergeConfig()) {}

  void LoadRows(uint64_t n) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < n; ++k) {
      ASSERT_TRUE(table_.Insert(txn, {k, k * 10, k * 100, k * 1000}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  void UpdateKey(Value key, ColumnMask mask, Value v) {
    Txn txn = table_.Begin();
    std::vector<Value> row(4, 0);
    for (int c = 0; c < 4; ++c) {
      if (mask & (1ull << c)) row[c] = v;
    }
    ASSERT_TRUE(table_.Update(txn, key, mask, row).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  Value ReadCol(Value key, ColumnId col) {
    Txn txn = table_.Begin();
    std::vector<Value> out;
    Status s = table_.Read(txn, key, 1ull << col, &out);
    (void)txn.Commit();
    return s.ok() ? out[col] : kNull;
  }

  Table table_;
};

TEST_F(MergeTest, InsertMergeBuildsBaseSegments) {
  LoadRows(64);  // fills range 0 exactly
  EXPECT_TRUE(table_.InsertMergeNow(0));
  EXPECT_EQ(
      table_.metrics()->GetCounter("lstore_insert_merges_total")->value(), 1u);
  // Data still readable after the table-level tail pages are merged.
  for (Value k = 0; k < 64; ++k) {
    EXPECT_EQ(ReadCol(k, 1), k * 10);
  }
}

TEST_F(MergeTest, InsertMergeOfPartialRangeCoversCommittedPrefix) {
  LoadRows(20);
  EXPECT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 20; ++k) EXPECT_EQ(ReadCol(k, 2), k * 100);
  // Extension: more inserts then a second insert merge.
  LoadRows(0);  // no-op
  Txn txn = table_.Begin();
  for (Value k = 20; k < 40; ++k) {
    ASSERT_TRUE(table_.Insert(txn, {k, k * 10, k * 100, k * 1000}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 40; ++k) EXPECT_EQ(ReadCol(k, 2), k * 100);
}

TEST_F(MergeTest, UpdateMergeConsolidatesAndAdvancesTps) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 32; ++k) UpdateKey(k, 0b0010, 7000 + k);
  uint32_t tail_before = table_.RangeTailLength(0);
  EXPECT_GT(tail_before, 0u);
  EXPECT_EQ(table_.RangeTps(0), 0u);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  // All committed tail records consolidated: TPS = tail length.
  EXPECT_EQ(table_.RangeTps(0), tail_before);
  // Values unchanged for readers.
  for (Value k = 0; k < 32; ++k) EXPECT_EQ(ReadCol(k, 1), 7000 + k);
  for (Value k = 32; k < 64; ++k) EXPECT_EQ(ReadCol(k, 1), k * 10);
}

TEST_F(MergeTest, MergeIsRelaxedOnlyCommittedPrefix) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  UpdateKey(1, 0b0010, 11);
  // An uncommitted update interrupts the committed prefix.
  Txn open = table_.Begin();
  std::vector<Value> row(4, 0);
  row[1] = 99;
  ASSERT_TRUE(table_.Update(open, 2, 0b0010, row).ok());
  UpdateKey(3, 0b0010, 33);  // committed, but after the open one
  ASSERT_TRUE(table_.MergeRangeNow(0));
  uint32_t tps = table_.RangeTps(0);
  EXPECT_LT(tps, table_.RangeTailLength(0));
  // Readers still see a correct view regardless of the merge horizon.
  EXPECT_EQ(ReadCol(1, 1), 11u);
  EXPECT_EQ(ReadCol(2, 1), 20u);
  EXPECT_EQ(ReadCol(3, 1), 33u);
  ASSERT_TRUE(open.Commit().ok());
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_EQ(ReadCol(2, 1), 99u);
}

TEST_F(MergeTest, OnlyLatestVersionConsolidated) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (int i = 0; i < 10; ++i) UpdateKey(5, 0b0010, 100 + i);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_EQ(ReadCol(5, 1), 109u);
  // Merged fast path serves the read: no chain hops afterwards.
  Counter* hops = table_.metrics()->GetCounter("lstore_tail_chain_hops_total");
  uint64_t hops_before = hops->value();
  EXPECT_EQ(ReadCol(5, 1), 109u);
  EXPECT_EQ(hops->value(), hops_before);
}

TEST_F(MergeTest, DeleteSurvivesMerge) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  {
    Txn txn = table_.Begin();
    ASSERT_TRUE(table_.Delete(txn, 9).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_EQ(ReadCol(9, 1), kNull);  // still deleted after consolidation
  EXPECT_EQ(ReadCol(10, 1), 100u);
}

TEST_F(MergeTest, AbortedUpdatesAreSkippedByMerge) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  UpdateKey(4, 0b0010, 41);
  {
    Txn txn = table_.Begin();
    std::vector<Value> row(4, 0);
    row[1] = 666;
    ASSERT_TRUE(table_.Update(txn, 4, 0b0010, row).ok());
    txn.Abort();
  }
  ASSERT_TRUE(table_.MergeRangeNow(0));
  // TPS advanced past the tombstone, but the aborted value never wins.
  EXPECT_EQ(table_.RangeTps(0), table_.RangeTailLength(0));
  EXPECT_EQ(ReadCol(4, 1), 41u);
}

TEST_F(MergeTest, SnapshotReadsSurviveMerge) {
  // Lemma 2: pre-image snapshots make it safe to discard outdated
  // base pages — old snapshots remain answerable from tail pages.
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  Timestamp before = table_.txn_manager().clock().Tick();
  for (Value k = 0; k < 64; ++k) UpdateKey(k, 0b0010, 5000 + k);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  table_.epochs().TryReclaim();
  std::vector<Value> out;
  for (Value k = 0; k < 64; k += 7) {
    ASSERT_TRUE(table_.ReadAsOf(k, before, 0b0010, &out).ok());
    EXPECT_EQ(out[1], k * 10) << "pre-merge value must survive";
  }
}

TEST_F(MergeTest, MergeRetiresOldSegmentsThroughEpochs) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 32; ++k) UpdateKey(k, 0b0010, k);
  size_t pending_before = table_.epochs().pending();
  ASSERT_TRUE(table_.MergeRangeNow(0));
  EXPECT_GT(table_.epochs().pending(), pending_before);
  EXPECT_GT(
      table_.metrics()->GetCounter("lstore_segments_retired_total")->value(),
      0u);
  table_.epochs().TryReclaim();
  EXPECT_EQ(table_.epochs().pending(), 0u);
}

TEST_F(MergeTest, PerColumnMergeYieldsMixedTpsDetectableState) {
  // Section 4.2: "the different columns of the same record can be
  // merged completely independent of each other" — Lemma 3 says the
  // resulting mixed-TPS state is detectable; Theorem 2 says reads can
  // still be answered.
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 16; ++k) UpdateKey(k, 0b0110, 900 + k);
  ASSERT_TRUE(table_.MergeRangeColumns(0, 0b0010));  // merge column 1 only
  auto tps = table_.RangeColumnTps(0);
  EXPECT_GT(tps[1], tps[2]);  // inconsistent lineage across columns
  // Reads across both columns remain consistent (Theorem 2).
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 3, 0b0110, &out).ok());
  EXPECT_EQ(out[1], 903u);
  EXPECT_EQ(out[2], 903u);
  (void)txn.Commit();
  // Completing the merge equalizes the lineage.
  ASSERT_TRUE(table_.MergeRangeColumns(0, 0b0100));
  tps = table_.RangeColumnTps(0);
  EXPECT_EQ(tps[1], tps[2]);
}

TEST_F(MergeTest, MergeIsIdempotentOnRepeat) {
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  for (Value k = 0; k < 20; ++k) UpdateKey(k, 0b0010, 3000 + k);
  ASSERT_TRUE(table_.MergeRangeNow(0));
  uint32_t tps = table_.RangeTps(0);
  EXPECT_FALSE(table_.MergeRangeNow(0));  // nothing new to merge
  EXPECT_EQ(table_.RangeTps(0), tps);
  for (Value k = 0; k < 20; ++k) EXPECT_EQ(ReadCol(k, 1), 3000 + k);
}

TEST_F(MergeTest, CumulationResetAtTpsHighWaterMark) {
  // Section 4.2 / Table 5: cumulative updates reset at the merge
  // boundary; readers combine merged pages with post-reset tails.
  LoadRows(64);
  ASSERT_TRUE(table_.InsertMergeNow(0));
  UpdateKey(2, 0b0010, 21);   // col1
  UpdateKey(2, 0b0100, 22);   // col2 (cumulative: carries col1)
  ASSERT_TRUE(table_.MergeRangeNow(0));
  UpdateKey(2, 0b1000, 23);   // col3, cumulation was reset at merge
  Txn txn = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(txn, 2, 0b1110, &out).ok());
  EXPECT_EQ(out[1], 21u);
  EXPECT_EQ(out[2], 22u);
  EXPECT_EQ(out[3], 23u);
  (void)txn.Commit();
}

TEST_F(MergeTest, NonCumulativeModeStillCorrect) {
  TableConfig cfg = MergeConfig();
  cfg.cumulative_updates = false;
  Table t("nc", Schema(4), cfg);
  Txn txn = t.Begin();
  ASSERT_TRUE(t.Insert(txn, {1, 10, 20, 30}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  for (Value v = 0; v < 5; ++v) {
    Txn u = t.Begin();
    std::vector<Value> row(4, 0);
    row[1] = 100 + v;
    ASSERT_TRUE(t.Update(u, 1, 0b0010, row).ok());
    row[1] = 0;
    row[2] = 200 + v;
    ASSERT_TRUE(t.Update(u, 1, 0b0100, row).ok());
    ASSERT_TRUE(u.Commit().ok());
  }
  Txn r = t.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t.Read(r, 1, 0b0110, &out).ok());
  EXPECT_EQ(out[1], 104u);  // readers walk the chain without cumulation
  EXPECT_EQ(out[2], 204u);
  (void)r.Commit();
}

TEST_F(MergeTest, CommitSchedulesInsertMergeThatRanMidTransaction) {
  // Filling a range schedules its insert-merge while the inserting
  // transaction is still open; that merge stops at the first
  // uncommitted record. Nothing else writes to the range afterwards,
  // so the commit itself must schedule the merge again.
  Table t("bg", Schema(4), MergeConfig(/*merge_thread=*/true));
  Txn txn = t.Begin();
  for (Value k = 0; k < 64; ++k) {
    ASSERT_TRUE(t.Insert(txn, {k, k, k, k}).ok());
  }
  t.WaitForMergeQueue();
  Counter* insert_merges = t.metrics()->GetCounter("lstore_insert_merges_total");
  EXPECT_EQ(insert_merges->value(), 0u);
  ASSERT_TRUE(txn.Commit().ok());
  t.WaitForMergeQueue();
  EXPECT_EQ(insert_merges->value(), 1u);
  EXPECT_EQ(t.metrics()->Snapshot().CounterValue(
                "lstore_merge_insert_rows_total"),
            64u);
}

TEST_F(MergeTest, BackgroundMergeKeepsUpWithWriters) {
  TableConfig cfg = MergeConfig(/*merge_thread=*/true);
  Table t("bg", Schema(4), cfg);
  Txn setup = t.Begin();
  for (Value k = 0; k < 128; ++k) {
    ASSERT_TRUE(t.Insert(setup, {k, k, k, k}).ok());
  }
  ASSERT_TRUE(setup.Commit().ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(3);
    int i = 0;
    while (!stop.load()) {
      Txn txn = t.Begin();
      std::vector<Value> row(4, 0);
      row[1] = ++i;
      Value key = rng.Uniform(128);
      if (t.Update(txn, key, 0b0010, row).ok()) {
        (void)txn.Commit();
      } else {
        txn.Abort();
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  writer.join();
  t.WaitForMergeQueue();
  MetricsSnapshot snap = t.metrics()->Snapshot();
  EXPECT_GT(snap.CounterValue("lstore_update_merges_total") +
                snap.CounterValue("lstore_insert_merges_total"),
            0u);
  // Table remains fully readable.
  for (Value k = 0; k < 128; ++k) {
    Txn txn = t.Begin();
    std::vector<Value> out;
    EXPECT_TRUE(t.Read(txn, k, 0b0001, &out).ok());
    (void)txn.Commit();
  }
}

// Property sweep: merged view must equal the chain-replayed view for
// every key, across range sizes and update volumes.
struct MergeSweepCase {
  const char* name;
  uint32_t range_size;
  uint32_t rows;
  uint32_t updates;
  bool cumulative;
};

class MergeEquivalence : public ::testing::TestWithParam<MergeSweepCase> {};

TEST_P(MergeEquivalence, MergedViewMatchesUnmergedView) {
  const auto& p = GetParam();
  TableConfig cfg;
  cfg.range_size = p.range_size;
  cfg.insert_range_size = p.range_size;
  cfg.tail_page_slots = 16;
  cfg.enable_merge_thread = false;
  cfg.cumulative_updates = p.cumulative;

  // Twin tables: one merged, one not; they must agree everywhere.
  Table merged("m", Schema(4), cfg);
  Table plain("p", Schema(4), cfg);
  Random rng(p.rows * 31 + p.updates);

  for (Table* t : {&merged, &plain}) {
    Txn txn = t->Begin();
    for (Value k = 0; k < p.rows; ++k) {
      ASSERT_TRUE(t->Insert(txn, {k, k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (uint32_t i = 0; i < p.updates; ++i) {
    Value key = rng.Uniform(p.rows);
    ColumnMask mask = 1ull << (1 + rng.Uniform(3));
    Value v = rng.Uniform(100000);
    for (Table* t : {&merged, &plain}) {
      Txn txn = t->Begin();
      std::vector<Value> row(4, v);
      ASSERT_TRUE(t->Update(txn, key, mask, row).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
  }
  merged.FlushAll();
  for (Value k = 0; k < p.rows; ++k) {
    Txn tm = merged.Begin();
    Txn tp = plain.Begin();
    std::vector<Value> a, b;
    ASSERT_TRUE(merged.Read(tm, k, 0b1111, &a).ok());
    ASSERT_TRUE(plain.Read(tp, k, 0b1111, &b).ok());
    EXPECT_EQ(a, b) << "key " << k;
    (void)tm.Commit();
    (void)tp.Commit();
  }
  // Scans agree too.
  uint64_t sm = 0, sp = 0;
  ASSERT_TRUE(merged.NewQuery().Sum(1, &sm).ok());
  ASSERT_TRUE(plain.NewQuery().Sum(1, &sp).ok());
  EXPECT_EQ(sm, sp);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeEquivalence,
    ::testing::Values(
        MergeSweepCase{"tiny_range", 16, 50, 100, true},
        MergeSweepCase{"exact_range", 64, 64, 200, true},
        MergeSweepCase{"multi_range", 64, 300, 500, true},
        MergeSweepCase{"non_cumulative", 64, 120, 300, false},
        MergeSweepCase{"hot_keys", 32, 40, 600, true},
        MergeSweepCase{"sparse", 128, 500, 50, true}),
    [](const ::testing::TestParamInfo<MergeSweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lstore
