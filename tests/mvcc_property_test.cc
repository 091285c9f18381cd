// Parameterized MVCC property sweeps on the L-Store table: randomized
// concurrent workloads checked against global invariants —
//  * no dirty reads (only committed values are ever observed), also on
//    L-Store (Row), IUH and DBM, whose visibility is the transaction
//    manager's too,
//  * snapshot-sum conservation under balanced transfers,
//  * monotone visibility (committed writes eventually observed),
//  * abort atomicity.
// Swept across contention levels, thread counts, and merge settings.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/random.h"
#include "core/query.h"
#include "core/row_table.h"
#include "core/table.h"

namespace lstore {
namespace {

struct PropertyCase {
  const char* name;
  uint64_t rows;        // active set
  int writers;
  bool merge_thread;
  uint32_t merge_threshold;
  int duration_ms;
  bool all_engines;     // also run NoDirtyOrTornReads on the baselines
};

TableConfig MakeConfig(const PropertyCase& p) {
  TableConfig cfg;
  cfg.range_size = 128;
  cfg.insert_range_size = 128;
  cfg.tail_page_slots = 32;
  cfg.merge_threshold = p.merge_threshold;
  cfg.enable_merge_thread = p.merge_thread;
  return cfg;
}

class MvccProperty : public ::testing::TestWithParam<PropertyCase> {};

// The per-engine factory: every engine shares Begin, Insert, Update
// and Read over a Txn session.
template <class Engine>
std::unique_ptr<Engine> MakeEngine(const TableConfig& cfg) {
  return std::make_unique<Engine>(Schema(3), cfg);
}
template <>
std::unique_ptr<Table> MakeEngine<Table>(const TableConfig& cfg) {
  return std::make_unique<Table>("t", Schema(3), cfg);
}

// Writers only ever commit values that are multiples of 1000; any
// other observed value is a dirty or torn read, or an aborted write.
template <class Engine>
void ExpectNoDirtyOrTornReads(const char* engine, const PropertyCase& p) {
  SCOPED_TRACE(engine);
  std::unique_ptr<Engine> owned = MakeEngine<Engine>(MakeConfig(p));
  Engine& table = *owned;
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < p.rows; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, 0, 0}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < p.writers; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      while (!stop.load()) {
        Txn txn = table.Begin();
        Value key = rng.Uniform(p.rows);
        // Column 1, 2 or both: a version that covers one column leaves
        // the other to older versions (in place: to an abort's undo).
        static constexpr ColumnMask kMasks[] = {0b010, 0b100, 0b110};
        ColumnMask mask = kMasks[rng.Uniform(3)];
        bool abort = rng.Percent(20);
        auto value = [&](bool dirty) {
          return rng.Uniform(1000) * 1000 + (dirty ? 7 : 0);
        };
        // Write non-multiples first, then fix them before committing:
        // intermediate state must never leak. A transaction bound to
        // abort keeps non-multiples: its writes must never leak either.
        std::vector<Value> row = {0, value(true), value(true)};
        if (!table.Update(txn, key, mask, row).ok()) {
          txn.Abort();
          continue;
        }
        row = {0, value(abort), value(abort)};
        if (!table.Update(txn, key, mask, row).ok()) {
          txn.Abort();
          continue;
        }
        if (abort) {
          txn.Abort();
        } else {
          (void)txn.Commit();
        }
      }
    });
  }
  // Readers.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(p.duration_ms);
  Random rng(7);
  while (std::chrono::steady_clock::now() < deadline) {
    Txn txn = table.Begin();
    std::vector<Value> out;
    Value key = rng.Uniform(p.rows);
    if (table.Read(txn, key, 0b110, &out).ok()) {
      if (out[1] % 1000 != 0 || out[2] % 1000 != 0) violation = true;
    }
    (void)txn.Commit();
  }
  stop = true;
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load()) << "observed an uncommitted value";
}

TEST_P(MvccProperty, NoDirtyOrTornReads) {
  const PropertyCase& p = GetParam();
  ExpectNoDirtyOrTornReads<Table>("L-Store", p);
  if (!p.all_engines) return;
  ExpectNoDirtyOrTornReads<RowTable>("L-Store (Row)", p);
  ExpectNoDirtyOrTornReads<IuhTable>("IUH", p);
  ExpectNoDirtyOrTornReads<DbmTable>("DBM", p);
}

// Balanced transfers under serializable isolation: every snapshot sum
// equals the initial total.
TEST_P(MvccProperty, SnapshotSumConservation) {
  const PropertyCase& p = GetParam();
  Table table("t", Schema(3), MakeConfig(p));
  constexpr Value kInitial = 10000;
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < p.rows; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, kInitial, 0}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  const uint64_t expected = p.rows * kInitial;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < p.writers; ++t) {
    threads.emplace_back([&, t] {
      Random rng(200 + t);
      while (!stop.load()) {
        Value from = rng.Uniform(p.rows), to = rng.Uniform(p.rows);
        if (from == to) continue;
        Txn txn = table.Begin(IsolationLevel::kSerializable);
        std::vector<Value> a, b;
        if (!table.Read(txn, from, 0b010, &a).ok() ||
            !table.Read(txn, to, 0b010, &b).ok()) {
          txn.Abort();
          continue;
        }
        Value amount = 1 + rng.Uniform(100);
        if (a[1] < amount) {
          txn.Abort();
          continue;
        }
        std::vector<Value> row(3, 0);
        row[1] = a[1] - amount;
        if (!table.Update(txn, from, 0b010, row).ok()) {
          txn.Abort();
          continue;
        }
        row[1] = b[1] + amount;
        if (!table.Update(txn, to, 0b010, row).ok()) {
          txn.Abort();
          continue;
        }
        if (txn.Commit().ok()) committed.fetch_add(1);
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(p.duration_ms);
  int scans = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t sum = 0;
    ASSERT_TRUE(table.NewQuery().Sum(1, &sum).ok());
    EXPECT_EQ(sum, expected) << "scan " << scans;
    ++scans;
  }
  stop = true;
  for (auto& th : threads) th.join();
  table.WaitForMergeQueue();
  table.FlushAll();
  uint64_t final_sum = 0;
  ASSERT_TRUE(table.NewQuery().Sum(1, &final_sum).ok());
  EXPECT_EQ(final_sum, expected);
  EXPECT_GT(committed.load(), 0u);
  EXPECT_GT(scans, 0);
}

// Committed increments are never lost, even with merges racing.
TEST_P(MvccProperty, CommittedIncrementsNeverLost) {
  const PropertyCase& p = GetParam();
  Table table("t", Schema(3), MakeConfig(p));
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < p.rows; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, 0, 0}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_added{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < p.writers; ++t) {
    threads.emplace_back([&, t] {
      Random rng(300 + t);
      while (!stop.load()) {
        Value key = rng.Uniform(p.rows);
        Txn txn = table.Begin(IsolationLevel::kSerializable);
        std::vector<Value> out;
        if (!table.Read(txn, key, 0b010, &out).ok()) {
          txn.Abort();
          continue;
        }
        std::vector<Value> row(3, 0);
        Value inc = 1 + rng.Uniform(9);
        row[1] = out[1] + inc;
        if (!table.Update(txn, key, 0b010, row).ok()) {
          txn.Abort();
          continue;
        }
        if (txn.Commit().ok()) {
          total_added.fetch_add(inc);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(p.duration_ms));
  stop = true;
  for (auto& th : threads) th.join();
  table.WaitForMergeQueue();
  table.FlushAll();
  uint64_t sum = 0;
  ASSERT_TRUE(table.NewQuery().Sum(1, &sum).ok());
  EXPECT_EQ(sum, total_added.load());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MvccProperty,
    ::testing::Values(
        PropertyCase{"low_contention", 512, 2, true, 64, 250, true},
        PropertyCase{"high_contention", 16, 3, true, 32, 250, true},
        PropertyCase{"no_merge", 64, 2, false, 1u << 30, 200, false},
        PropertyCase{"eager_merge", 64, 2, true, 8, 250, false}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lstore
