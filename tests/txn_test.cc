// Concurrency-control tests (Section 5.1.1): transaction manager state
// machine, write-write conflicts via the indirection latch bit,
// isolation levels, read validation, and speculative reads.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/table.h"
#include "txn/transaction_manager.h"

namespace lstore {
namespace {

TableConfig SmallConfig() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.tail_page_slots = 16;
  cfg.merge_threshold = 1u << 30;  // no automatic merges
  cfg.enable_merge_thread = false;
  return cfg;
}

TEST(TxnManagerTest, BeginAssignsTaggedMonotoneIds) {
  TransactionManager mgr;
  Transaction a = mgr.Begin();
  Transaction b = mgr.Begin();
  EXPECT_TRUE(IsTxnId(a.id()));
  EXPECT_LT(a.begin_time(), b.begin_time());
  EXPECT_EQ(a.id(), kTxnIdTag | a.begin_time());
}

TEST(TxnManagerTest, StateTransitions) {
  TransactionManager mgr;
  Transaction t = mgr.Begin();
  auto v = mgr.GetState(t.id());
  ASSERT_TRUE(v.found);
  EXPECT_EQ(v.state, TxnState::kActive);

  Timestamp commit = mgr.EnterPreCommit(&t);
  v = mgr.GetState(t.id());
  EXPECT_EQ(v.state, TxnState::kPreCommit);
  EXPECT_EQ(v.commit, commit);
  EXPECT_GT(commit, t.begin_time());

  mgr.MarkCommitted(&t);
  v = mgr.GetState(t.id());
  EXPECT_EQ(v.state, TxnState::kCommitted);
}

TEST(TxnManagerTest, RetireRemovesEntry) {
  TransactionManager mgr;
  Transaction t = mgr.Begin();
  EXPECT_EQ(mgr.live_entries(), 1u);
  mgr.Retire(t.id());
  EXPECT_EQ(mgr.live_entries(), 0u);
  EXPECT_FALSE(mgr.GetState(t.id()).found);
}

TEST(TxnManagerTest, EntriesStayBoundedAcrossManyTxns) {
  // Section 5.1.1 keeps txn state in a hashtable; our implementation
  // retires entries post-commit so the table cannot grow unboundedly.
  TableConfig cfg = SmallConfig();
  Table table("t", Schema(3), cfg);
  Txn setup = table.Begin();
  ASSERT_TRUE(table.Insert(setup, {1, 2, 3}).ok());
  ASSERT_TRUE(setup.Commit().ok());
  for (int i = 0; i < 500; ++i) {
    Txn txn = table.Begin();
    ASSERT_TRUE(table.Update(txn, 1, 0b010, {0, Value(i), 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(table.txn_manager().live_entries(), 0u);
}

class TxnTableTest : public ::testing::Test {
 protected:
  TxnTableTest() : table_("t", Schema(3), SmallConfig()) {
    Txn txn = table_.Begin();
    for (Value k = 0; k < 10; ++k) {
      EXPECT_TRUE(table_.Insert(txn, {k, k * 10, k * 100}).ok());
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  Table table_;
};

TEST_F(TxnTableTest, WriteWriteConflictAbortsSecondWriter) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 3, 0b010, {0, 777, 0}).ok());
  // t2 hits the uncommitted version of t1.
  Txn t2 = table_.Begin();
  Status s = table_.Update(t2, 3, 0b010, {0, 888, 0});
  EXPECT_TRUE(s.IsAborted());
  t2.Abort();
  ASSERT_TRUE(t1.Commit().ok());
  EXPECT_GE(
      table_.metrics()->GetCounter("lstore_ww_conflicts_total")->value(), 1u);

  Txn t3 = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t3, 3, 0b010, &out).ok());
  EXPECT_EQ(out[1], 777u);
  (void)t3.Commit();
}

TEST_F(TxnTableTest, WriterCanStackOwnUpdates) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 3, 0b010, {0, 1, 0}).ok());
  ASSERT_TRUE(table_.Update(t1, 3, 0b010, {0, 2, 0}).ok());
  ASSERT_TRUE(table_.Update(t1, 3, 0b100, {0, 0, 3}).ok());
  ASSERT_TRUE(t1.Commit().ok());
  Txn t2 = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t2, 3, 0b110, &out).ok());
  EXPECT_EQ(out[1], 2u);  // only the final update is visible
  EXPECT_EQ(out[2], 3u);
  (void)t2.Commit();
}

TEST_F(TxnTableTest, AbortedUpdateLeavesTombstoneNotValue) {
  Txn t1 = table_.Begin();
  ASSERT_TRUE(table_.Update(t1, 3, 0b010, {0, 999, 0}).ok());
  t1.Abort();
  // "once a value is written to tail pages, it will not be
  // over-written even if the writing transaction aborts" — readers
  // just skip the tombstone.
  EXPECT_GT(table_.RangeTailLength(0), 0u);
  Txn t2 = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t2, 3, 0b010, &out).ok());
  EXPECT_EQ(out[1], 30u);
  (void)t2.Commit();
  // A later writer must not conflict with the tombstone.
  Txn t3 = table_.Begin();
  EXPECT_TRUE(table_.Update(t3, 3, 0b010, {0, 31, 0}).ok());
  EXPECT_TRUE(t3.Commit().ok());
}

TEST_F(TxnTableTest, ReadCommittedSeesLatestCommitted) {
  Txn reader = table_.Begin(IsolationLevel::kReadCommitted);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  // Another transaction commits mid-way.
  Txn writer = table_.Begin();
  ASSERT_TRUE(table_.Update(writer, 5, 0b010, {0, 51, 0}).ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Read-committed sees the new value within the same transaction.
  ASSERT_TRUE(table_.Read(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 51u);
  (void)reader.Commit();
}

TEST_F(TxnTableTest, SnapshotIsolationIsStable) {
  Txn reader = table_.Begin(IsolationLevel::kSnapshot);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  Txn writer = table_.Begin();
  ASSERT_TRUE(table_.Update(writer, 5, 0b010, {0, 51, 0}).ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Snapshot reader still sees its begin-time version.
  ASSERT_TRUE(table_.Read(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  EXPECT_TRUE(reader.Commit().ok());
}

TEST_F(TxnTableTest, SerializableValidationFailsOnChangedRead) {
  Txn t1 = table_.Begin(IsolationLevel::kSerializable);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t1, 5, 0b010, &out).ok());
  // Concurrent committed write invalidates t1's read.
  Txn t2 = table_.Begin();
  ASSERT_TRUE(table_.Update(t2, 5, 0b010, {0, 555, 0}).ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_TRUE(t1.Commit().IsAborted());
  EXPECT_GE(table_.metrics()
                ->GetCounter("lstore_validation_aborts_total")
                ->value(),
            1u);
}

TEST_F(TxnTableTest, SerializableValidationPassesWhenUnchanged) {
  Txn t1 = table_.Begin(IsolationLevel::kSerializable);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t1, 5, 0b010, &out).ok());
  ASSERT_TRUE(table_.Read(t1, 6, 0b010, &out).ok());
  EXPECT_TRUE(t1.Commit().ok());
}

TEST_F(TxnTableTest, SerializableReadModifyWriteOfOwnKeyCommits) {
  Txn t1 = table_.Begin(IsolationLevel::kSerializable);
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(t1, 5, 0b010, &out).ok());
  ASSERT_TRUE(table_.Update(t1, 5, 0b010, {0, out[1] + 1, 0}).ok());
  ASSERT_TRUE(table_.Read(t1, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 51u);
  EXPECT_TRUE(t1.Commit().ok());
}

TEST_F(TxnTableTest, SpeculativeReadSeesPreCommitAndCarriesDependency) {
  Txn writer = table_.Begin();
  ASSERT_TRUE(table_.Update(writer, 5, 0b010, {0, 1234, 0}).ok());
  // Push writer into pre-commit without publishing.
  table_.txn_manager().EnterPreCommit(writer.raw());

  Txn reader = table_.Begin(IsolationLevel::kReadCommitted);
  std::vector<Value> out;
  // Normal read skips the pre-commit version...
  ASSERT_TRUE(table_.Read(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 50u);
  // ...speculative read observes it ([18]).
  ASSERT_TRUE(table_.SpeculativeRead(reader, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 1234u);
  ASSERT_EQ(reader.raw()->commit_dependencies().size(), 1u);
  EXPECT_EQ(reader.raw()->commit_dependencies()[0], writer.id());

  // Finish the writer, then the reader can commit.
  table_.txn_manager().MarkCommitted(writer.raw());
  writer.raw()->set_finished();
  table_.txn_manager().Retire(writer.id());
  EXPECT_TRUE(reader.Commit().ok());
}

TEST_F(TxnTableTest, ConcurrentWritersSingleWinnerPerRecord) {
  constexpr int kThreads = 4, kAttempts = 300;
  std::atomic<uint64_t> commits{0}, aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAttempts; ++i) {
        Txn txn = table_.Begin();
        Status s = table_.Update(txn, 7, 0b010,
                                 {0, Value(t * kAttempts + i), 0});
        if (s.ok() && txn.Commit().ok()) {
          commits.fetch_add(1);
        } else {
          txn.Abort();  // no-op if already finished
          aborts.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commits + aborts, static_cast<uint64_t>(kThreads * kAttempts));
  EXPECT_GT(commits.load(), 0u);
  // The final value must be one that some committed txn wrote.
  Txn check = table_.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table_.Read(check, 7, 0b010, &out).ok());
  EXPECT_LT(out[1], static_cast<Value>(kThreads * kAttempts));
  (void)check.Commit();
}

}  // namespace
}  // namespace lstore
