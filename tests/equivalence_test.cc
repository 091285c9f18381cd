// Cross-engine equivalence: L-Store (column), L-Store (Row), IUH, and
// DBM execute the same randomized committed operation trace and must
// agree with a plain std::map reference model on every read and scan.
// This is the strongest end-to-end correctness property we can state:
// the four storage architectures are interchangeable in semantics and
// differ only in performance (Section 6.1 "for fairness...").

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/bitutil.h"
#include "common/random.h"
#include "core/row_table.h"
#include "core/query.h"
#include "core/table.h"

namespace lstore {
namespace {

constexpr uint32_t kCols = 4;

TableConfig Config(uint32_t range_size) {
  TableConfig cfg;
  cfg.range_size = range_size;
  cfg.insert_range_size = range_size;
  cfg.tail_page_slots = 16;
  cfg.base_page_slots = 16;
  cfg.merge_threshold = 24;
  cfg.enable_merge_thread = false;
  return cfg;
}

struct SweepCase {
  const char* name;
  uint64_t seed;
  uint32_t range_size;
  int ops;
  bool merge_mid_trace;
};

class EngineEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineEquivalence, AllEnginesMatchReferenceModel) {
  const SweepCase& p = GetParam();
  TableConfig cfg = Config(p.range_size);
  Table col("c", Schema(kCols), cfg);
  RowTable row(Schema(kCols), cfg);
  IuhTable iuh(Schema(kCols), cfg);
  DbmTable dbm(Schema(kCols), cfg);
  std::map<Value, std::vector<Value>> model;

  Random rng(p.seed);
  Value next_key = 0;

  const char* const kEngines[4] = {"L-Store col", "L-Store row", "IUH",
                                   "DBM"};
  constexpr ColumnMask kAll = (1ull << kCols) - 1;
  // A point read of `key` on every engine matches the model.
  auto check_read = [&](Value key) {
    auto expect = model.find(key);
    std::vector<Value> a, b, c, d;
    Txn ta = col.Begin();
    Txn tb = row.Begin();
    Txn tc = iuh.Begin();
    Txn td = dbm.Begin();
    Status sa = col.Read(ta, key, kAll, &a);
    Status sb = row.Read(tb, key, kAll, &b);
    Status sc = iuh.Read(tc, key, kAll, &c);
    Status sd = dbm.Read(td, key, kAll, &d);
    (void)ta.Commit();
    (void)tb.Commit();
    (void)tc.Commit();
    (void)td.Commit();
    if (expect == model.end()) {
      EXPECT_TRUE(sa.IsNotFound());
      EXPECT_TRUE(sb.IsNotFound());
      EXPECT_TRUE(sc.IsNotFound());
      EXPECT_TRUE(sd.IsNotFound());
    } else {
      ASSERT_TRUE(sa.ok() && sb.ok() && sc.ok() && sd.ok());
      EXPECT_EQ(a, expect->second) << "L-Store col, key " << key;
      EXPECT_EQ(b, expect->second) << "L-Store row, key " << key;
      EXPECT_EQ(c, expect->second) << "IUH, key " << key;
      EXPECT_EQ(d, expect->second) << "DBM, key " << key;
    }
  };

  auto run_all = [&](auto&& fn) {
    // fn(table) -> Status; must succeed or fail identically everywhere.
    Status a = fn(col), b = fn(row), c = fn(iuh), d = fn(dbm);
    ASSERT_EQ(a.ok(), b.ok()) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.ok(), c.ok()) << a.ToString() << " vs " << c.ToString();
    ASSERT_EQ(a.ok(), d.ok()) << a.ToString() << " vs " << d.ToString();
  };

  for (int i = 0; i < p.ops; ++i) {
    int op = static_cast<int>(rng.Uniform(100));
    if (op < 30 || model.empty()) {
      // Insert a fresh key.
      Value key = next_key++;
      std::vector<Value> r(kCols);
      r[0] = key;
      for (uint32_t c = 1; c < kCols; ++c) r[c] = rng.Uniform(100000);
      run_all([&](auto& t) {
        Txn txn = t.Begin();
        Status s = t.Insert(txn, r);
        if (!s.ok()) {
          txn.Abort();
          return s;
        }
        return txn.Commit();
      });
      model[key] = r;
    } else if (op < 70) {
      // Update 1-3 random columns of an existing key.
      Value key = rng.Uniform(next_key);
      ColumnMask mask = 0;
      uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(3));
      while (PopCount(mask) < static_cast<int>(n)) {
        mask |= 1ull << (1 + rng.Uniform(kCols - 1));
      }
      std::vector<Value> r(kCols, 0);
      for (BitIter it(mask); it; ++it) r[*it] = rng.Uniform(100000);
      bool exists = model.count(key) > 0;
      run_all([&](auto& t) {
        Txn txn = t.Begin();
        Status s = t.Update(txn, key, mask, r);
        if (!s.ok()) {
          txn.Abort();
          return s;
        }
        return txn.Commit();
      });
      if (exists) {
        for (BitIter it(mask); it; ++it) model[key][*it] = r[*it];
      }
    } else if (op < 75) {
      // Delete: all engines agree, including on double-deletes.
      Value key = rng.Uniform(next_key);
      run_all([&](auto& t) {
        Txn txn = t.Begin();
        Status s = t.Delete(txn, key);
        if (!s.ok()) {
          txn.Abort();
          return s;
        }
        return txn.Commit();
      });
      model.erase(key);
    } else if (op < 82) {
      // One transaction of 2-3 writes to one key (updates of differing
      // columns, update then delete, delete then update), committed or
      // aborted. A write after the transaction's own delete fails with
      // NotFound and the transaction aborts. Inside the transaction a
      // read sees its own writes; the model takes them on commit only.
      Value key = rng.Uniform(next_key);
      const int n = 2 + static_cast<int>(rng.Uniform(2));
      const bool commit = rng.Uniform(2) == 0;
      struct Write {
        bool del;
        ColumnMask mask;
        std::vector<Value> row;
      };
      std::vector<Write> writes;
      ColumnMask last = 0;
      for (int w = 0; w < n; ++w) {
        Write wr{rng.Uniform(3) == 0, 0, std::vector<Value>(kCols, 0)};
        do {
          wr.mask = 1ull << (1 + rng.Uniform(kCols - 1));
        } while (wr.mask == last);
        last = wr.mask;
        for (BitIter it(wr.mask); it; ++it) wr.row[*it] = rng.Uniform(100000);
        writes.push_back(wr);
      }
      // The model's view of the transaction: the row after each write
      // that succeeds, and whether every write succeeds.
      std::optional<std::vector<Value>> cur;
      if (model.count(key) > 0) cur = model[key];
      bool writes_ok = true;
      for (const Write& wr : writes) {
        if (!cur) {
          writes_ok = false;
          break;
        }
        if (wr.del) {
          cur.reset();
        } else {
          for (BitIter it(wr.mask); it; ++it) (*cur)[*it] = wr.row[*it];
        }
      }
      auto multi = [&](auto& t) -> Status {
        Txn txn = t.Begin();
        for (const Write& wr : writes) {
          Status s = wr.del ? t.Delete(txn, key)
                            : t.Update(txn, key, wr.mask, wr.row);
          if (!s.ok()) return s;  // auto-abort
        }
        std::vector<Value> own;
        Status s = t.Read(txn, key, kAll, &own);
        if (cur ? !s.ok() || own != *cur : !s.IsNotFound()) {
          return Status::Corruption("own writes misread");
        }
        if (!commit) {
          txn.Abort();
          return Status::OK();
        }
        return txn.Commit();
      };
      Status st[4] = {multi(col), multi(row), multi(iuh), multi(dbm)};
      for (int e = 0; e < 4; ++e) {
        EXPECT_TRUE(writes_ok ? st[e].ok() : st[e].IsNotFound())
            << kEngines[e] << ", key " << key << ": " << st[e].ToString();
      }
      if (writes_ok && commit) {
        if (cur) {
          model[key] = *cur;
        } else {
          model.erase(key);
        }
      }
      check_read(key);
    } else if (op < 85) {
      // Aborted update: must leave no trace anywhere.
      Value key = rng.Uniform(next_key);
      std::vector<Value> r(kCols, rng.Uniform(100000));
      run_all([&](auto& t) {
        Txn txn = t.Begin();
        Status s = t.Update(txn, key, 0b0010, r);
        txn.Abort();
        return s;
      });
    } else if (op < 90 && p.merge_mid_trace) {
      // Merge / flush maintenance mid-trace (no semantic effect).
      col.FlushAll();
      col.epochs().TryReclaim();
      for (uint64_t rid = 0; rid < 4; ++rid) (void)dbm.MergeRange(rid);
    } else {
      // Point read of a random key: everyone matches the model.
      check_read(rng.Uniform(next_key));
    }
  }

  // Final scans across all engines match the model.
  uint64_t expect_sum = 0;
  for (const auto& [k, r] : model) expect_sum += r[1];
  uint64_t sums[4] = {0, 0, 0, 0};
  ASSERT_TRUE(col.NewQuery().Sum(1, &sums[0]).ok());
  ASSERT_TRUE(row.SumColumn(1, row.Now(), &sums[1]).ok());
  ASSERT_TRUE(iuh.SumColumn(1, iuh.Now(), &sums[2]).ok());
  ASSERT_TRUE(dbm.SumColumn(1, dbm.Now(), &sums[3]).ok());
  EXPECT_EQ(sums[0], expect_sum) << "L-Store col scan";
  EXPECT_EQ(sums[1], expect_sum) << "L-Store row scan";
  EXPECT_EQ(sums[2], expect_sum) << "IUH scan";
  EXPECT_EQ(sums[3], expect_sum) << "DBM scan";

  // And after a full merge everywhere, scans still agree.
  col.FlushAll();
  uint64_t after = 0;
  ASSERT_TRUE(col.NewQuery().Sum(1, &after).ok());
  EXPECT_EQ(after, expect_sum);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, EngineEquivalence,
    ::testing::Values(SweepCase{"seed1", 1, 32, 400, false},
                      SweepCase{"seed2", 2, 32, 400, true},
                      SweepCase{"seed3", 3, 16, 600, true},
                      SweepCase{"big_range", 4, 256, 400, false},
                      SweepCase{"merge_heavy", 5, 16, 800, true},
                      SweepCase{"seed6", 6, 64, 500, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lstore
