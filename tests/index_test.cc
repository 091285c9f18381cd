// Tests for the primary hash index (key -> base RID; indexes only ever
// reference base records, Section 2.2) and the secondary index with
// lazy posting removal (Section 3.1, footnote 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/primary_index.h"
#include "index/secondary_index.h"

namespace lstore {
namespace {

/// A base for keys past 2^32, which take the index's 12-byte slots.
constexpr Value kWideKeys = Value{1} << 40;

TEST(PrimaryIndexTest, InsertGetErase) {
  PrimaryIndex idx;
  EXPECT_TRUE(idx.Insert(10, 100));
  EXPECT_EQ(idx.Get(10), 100u);
  EXPECT_EQ(idx.Get(11), kInvalidRid);
  EXPECT_TRUE(idx.Erase(10));
  EXPECT_FALSE(idx.Erase(10));
  EXPECT_EQ(idx.Get(10), kInvalidRid);
}

TEST(PrimaryIndexTest, DuplicateInsertRejected) {
  PrimaryIndex idx;
  EXPECT_TRUE(idx.Insert(5, 1));
  EXPECT_FALSE(idx.Insert(5, 2));
  EXPECT_EQ(idx.Get(5), 1u);  // original mapping survives
}

TEST(PrimaryIndexTest, SizeAcrossShards) {
  PrimaryIndex idx(8);
  for (Value k = 0; k < 1000; ++k) EXPECT_TRUE(idx.Insert(k, k * 2));
  EXPECT_EQ(idx.size(), 1000u);
  for (Value k = 0; k < 1000; ++k) EXPECT_EQ(idx.Get(k), k * 2);
}

TEST(PrimaryIndexTest, GrowsThroughRehashesAndKeepsEveryKey) {
  // Random 64-bit keys take 12-byte slots, dense keys below 2^32 take
  // 8-byte ones. Most keys sit in the static run (0.95 full), the rest
  // in a fresh run (at most 0.9 full) that merges into it once it
  // holds a quarter as many.
  struct Case {
    bool dense;
    double min_bytes, max_bytes;  // per key
  };
  for (const Case& c : {Case{false, 12, 14.5}, Case{true, 8, 9.5}}) {
    SCOPED_TRACE(c.dense ? "dense" : "random");
    // One shard, so its runs grow and merge a few dozen times.
    PrimaryIndex idx(1);
    Random rng(17);
    std::vector<Value> keys;
    size_t rehashes = 0, last_bytes = idx.byte_size();
    for (int i = 0; i < 50000; ++i) {
      keys.push_back(c.dense ? static_cast<Value>(i) : rng.Next());
      ASSERT_TRUE(idx.Insert(keys.back(), static_cast<Rid>(i)));
      if (idx.byte_size() != last_bytes) {
        ++rehashes;
        last_bytes = idx.byte_size();
      }
    }
    EXPECT_GT(rehashes, 15u);
    EXPECT_EQ(idx.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(idx.Get(keys[i]), static_cast<Rid>(i)) << i;
    }
    EXPECT_LE(idx.byte_size(), keys.size() * c.max_bytes);
    EXPECT_GE(idx.byte_size(), keys.size() * c.min_bytes);
  }
}

/// Keys [base, base + n) in one shard: enough for several merges, so
/// the low keys sit in the static run and the last ones in the fresh
/// run.
void LoadOneShard(PrimaryIndex* idx, Value base, Value n) {
  for (Value k = 0; k < n; ++k) ASSERT_TRUE(idx->Insert(base + k, k));
}

TEST(PrimaryIndexTest, ReinsertingAMergedKeyTakesBackItsStaticSlot) {
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx(1);
    LoadOneShard(&idx, base, 2000);
    const size_t bytes = idx.byte_size();
    // Erase and re-insert the first 1500 keys one at a time. Had they
    // gone to the fresh run, it would have grown and merged; each takes
    // back its slot in the static run instead.
    for (Value k = 0; k < 1500; ++k) {
      ASSERT_TRUE(idx.Erase(base + k));
      EXPECT_EQ(idx.Get(base + k), kInvalidRid);
      ASSERT_TRUE(idx.Insert(base + k, 10000 + k));
    }
    EXPECT_EQ(idx.byte_size(), bytes);
    EXPECT_EQ(idx.size(), 2000u);
    for (Value k = 0; k < 2000; ++k) {
      ASSERT_EQ(idx.Get(base + k), k < 1500 ? 10000 + k : k) << k;
    }
  }
}

TEST(PrimaryIndexTest, InsertBatchRefusesDuplicatesAcrossStages) {
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx(1);
    LoadOneShard(&idx, base, 2000);
    // A merged key, a fresh-run key, a new key twice, another new key,
    // and the merged key again.
    const std::vector<Value> keys = {base + 5,    base + 1999, base + 5000,
                                     base + 5000, base + 5001, base + 5};
    const std::vector<Rid> rids = {1, 2, 3, 4, 5, 6};
    bool ok[6];
    idx.InsertBatch(keys.data(), rids.data(), keys.size(), ok);
    EXPECT_FALSE(ok[0]);
    EXPECT_FALSE(ok[1]);
    EXPECT_TRUE(ok[2]);
    EXPECT_FALSE(ok[3]);
    EXPECT_TRUE(ok[4]);
    EXPECT_FALSE(ok[5]);
    EXPECT_EQ(idx.Get(base + 5), 5u);
    EXPECT_EQ(idx.Get(base + 1999), 1999u);
    EXPECT_EQ(idx.Get(base + 5000), 3u);
    EXPECT_EQ(idx.Get(base + 5001), 5u);
    EXPECT_EQ(idx.size(), 2002u);
  }
}

TEST(PrimaryIndexTest, MultiGetReadsBothStages) {
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx(1);
    LoadOneShard(&idx, base, 2000);
    // Erased keys miss in either stage.
    ASSERT_TRUE(idx.Erase(base + 10));
    ASSERT_TRUE(idx.Erase(base + 1990));
    std::vector<Value> keys;
    for (Value k = 0; k < 4000; k += 3) keys.push_back(base + k);
    keys.push_back(base + 10);
    keys.push_back(base + 1990);
    std::vector<Rid> out(keys.size(), 0);
    idx.MultiGet(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      const Value k = keys[i] - base;
      const bool hit = k < 2000 && k != 10 && k != 1990;
      EXPECT_EQ(out[i], hit ? k : kInvalidRid) << k;
    }
  }
}

TEST(PrimaryIndexTest, ReinsertAfterEraseReusesTheTombstone) {
  PrimaryIndex idx(1);
  for (Value k = 0; k < 100; ++k) ASSERT_TRUE(idx.Insert(k, k));
  const size_t bytes = idx.byte_size();
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(idx.Erase(50));
    EXPECT_EQ(idx.Get(50), kInvalidRid);
    ASSERT_TRUE(idx.Insert(50, 5000 + round));
    EXPECT_EQ(idx.Get(50), static_cast<Rid>(5000 + round));
  }
  EXPECT_FALSE(idx.Insert(50, 1));
  EXPECT_EQ(idx.size(), 100u);
  // Each re-insert took back its own tombstone: no growth, no rehash.
  EXPECT_EQ(idx.byte_size(), bytes);
}

TEST(PrimaryIndexTest, InsertEraseChurnKeepsCapacityBounded) {
  // A sliding window of 1000 live keys: tombstones pile up and are
  // purged in place instead of growing the table. Keys from `base`, so
  // both slot widths churn.
  constexpr Value kLive = 1000;
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx(1);
    for (Value k = 0; k < kLive; ++k) ASSERT_TRUE(idx.Insert(base + k, k));
    size_t peak = 0;
    for (Value k = kLive; k < 100 * kLive; ++k) {
      ASSERT_TRUE(idx.Erase(base + k - kLive));
      ASSERT_TRUE(idx.Insert(base + k, k));
      peak = std::max(peak, idx.byte_size());
    }
    EXPECT_EQ(idx.size(), kLive);
    EXPECT_LE(peak, kLive * 40);
    for (Value k = 99 * kLive; k < 100 * kLive; ++k) {
      ASSERT_EQ(idx.Get(base + k), k);
    }
    EXPECT_EQ(idx.Get(base + 99 * kLive - 1), kInvalidRid);
  }
}

TEST(PrimaryIndexTest, MultiGetLargeBatchWithMisses) {
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx;
    for (Value k = 0; k < 2000; k += 2) {
      ASSERT_TRUE(idx.Insert(base + k, k + 1));
    }
    // Beyond the 256-key stack batch: every odd key misses.
    std::vector<Value> keys;
    for (Value k = 0; k < 1200; ++k) keys.push_back(base + (k * 7919) % 2400);
    std::vector<Rid> out(keys.size(), 0);
    idx.MultiGet(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      const Value k = keys[i] - base;
      EXPECT_EQ(out[i], k % 2 == 0 && k < 2000 ? k + 1 : kInvalidRid) << k;
    }
  }
}

TEST(PrimaryIndexTest, ExtremeKeysAreOrdinaryKeys) {
  // Slot sentinels live in the RID, so 0 and ~0 are valid keys, as are
  // the last key of the 8-byte slots and the first of the 12-byte ones.
  const std::vector<Value> keys = {0, (Value{1} << 32) - 1, Value{1} << 32,
                                   ~0ull};
  PrimaryIndex idx(1);
  for (Value k : keys) EXPECT_EQ(idx.Get(k), kInvalidRid);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(idx.Insert(keys[i], 10 + i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(idx.Insert(keys[i], 30));
    EXPECT_EQ(idx.Get(keys[i]), 10 + i);
  }
  // Erase from the top: each erased key reads as absent, the rest stay.
  for (size_t i = keys.size(); i-- > 0;) {
    EXPECT_TRUE(idx.Erase(keys[i]));
    EXPECT_EQ(idx.Get(keys[i]), kInvalidRid);
    for (size_t j = 0; j < i; ++j) EXPECT_EQ(idx.Get(keys[j]), 10 + j);
  }
  EXPECT_EQ(idx.size(), 0u);
}

TEST(PrimaryIndexTest, RidsUpToTheMaximumRoundTrip) {
  // Slots store RIDs in 32 bits, with the two values above kMaxRid as
  // the empty and tombstone markers; neither may come back as a RID.
  // Keys from `base`, so both slot widths hold them.
  constexpr Rid kMax = PrimaryIndex::kMaxRid;
  static_assert(kMax == (Rid{1} << 32) - 3);
  const std::vector<Rid> rids = {0, kMax - 1, kMax};
  for (const Value base : {Value{0}, kWideKeys}) {
    PrimaryIndex idx(1);
    for (size_t i = 0; i < rids.size(); ++i) {
      ASSERT_TRUE(idx.Insert(base + 100 + i, rids[i]));
    }
    std::vector<Value> keys = {base + 200, base + 201, base + 202};
    bool ok[3];
    idx.InsertBatch(keys.data(), rids.data(), keys.size(), ok);
    for (bool b : ok) EXPECT_TRUE(b);
    // Past the maximum: refused, nothing indexed.
    EXPECT_FALSE(idx.Insert(base + 300, kMax + 1));
    const Value past_key = base + 301;
    const Rid past = kMax + 2;
    idx.InsertBatch(&past_key, &past, 1, ok);
    EXPECT_FALSE(ok[0]);
    EXPECT_EQ(idx.size(), 6u);

    auto expect_all = [&] {
      for (size_t i = 0; i < rids.size(); ++i) {
        EXPECT_EQ(idx.Get(base + 100 + i), rids[i]);
        EXPECT_EQ(idx.Get(base + 200 + i), rids[i]);
      }
      std::vector<Value> probe = {100, 101, 102, 200, 201, 202, 300, 301, 999};
      for (Value& k : probe) k += base;
      std::vector<Rid> out(probe.size(), 0);
      idx.MultiGet(probe.data(), probe.size(), out.data());
      for (size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], rids[i % 3]) << i;
      for (size_t i = 6; i < probe.size(); ++i) {
        EXPECT_EQ(out[i], kInvalidRid);
      }
    };
    expect_all();
    // Erase leaves a tombstone that reads as absent, not as a RID.
    ASSERT_TRUE(idx.Erase(base + 202));
    EXPECT_EQ(idx.Get(base + 202), kInvalidRid);
    ASSERT_TRUE(idx.Insert(base + 202, kMax));
    // Enough keys to rehash the one shard several times over.
    const size_t bytes = idx.byte_size();
    for (Value k = 1000; k < 5000; ++k) ASSERT_TRUE(idx.Insert(base + k, k));
    EXPECT_GT(idx.byte_size(), bytes);
    expect_all();
    for (Value k = 1000; k < 5000; ++k) ASSERT_EQ(idx.Get(base + k), k);
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_TRUE(idx.Erase(base + 100 + i));
      EXPECT_TRUE(idx.Erase(base + 200 + i));
      EXPECT_EQ(idx.Get(base + 100 + i), kInvalidRid);
      EXPECT_EQ(idx.Get(base + 200 + i), kInvalidRid);
    }
    EXPECT_EQ(idx.size(), 4000u);
  }
}

TEST(PrimaryIndexTest, ConcurrentDisjointInserts) {
  PrimaryIndex idx;
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        Value k = static_cast<Value>(t) * kPer + i;
        EXPECT_TRUE(idx.Insert(k, k + 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.size(), static_cast<size_t>(kThreads * kPer));
  for (Value k = 0; k < kThreads * kPer; ++k) EXPECT_EQ(idx.Get(k), k + 7);
}

TEST(PrimaryIndexTest, ConcurrentDuplicateInsertsExactlyOneWins) {
  PrimaryIndex idx;
  constexpr int kThreads = 4;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (idx.Insert(77, 1000 + t)) wins.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(PrimaryIndexTest, ConcurrentOverlappingInsertBatches) {
  // Thread t inserts keys [t * kStride, t * kStride + kPer) in
  // 1024-key batches, so neighbouring threads race for half their
  // keys. Each key has one winner, whose RID it maps to. Every third
  // key is moved past 2^32, so each batch mixes both slot widths.
  // Each shard takes about 2,500 keys, so both widths' runs merge
  // while the threads race.
  PrimaryIndex idx;
  constexpr int kThreads = 4;
  constexpr Value kPer = 65536, kStride = kPer / 2, kBatch = 1024;
  std::vector<std::vector<bool>> won(kThreads, std::vector<bool>(kPer));
  auto rid_of = [](int t, Value k) { return k * kThreads + t; };
  auto key_of = [](Value k) { return k % 3 == 0 ? kWideKeys + k : k; };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Value> keys(kBatch);
      std::vector<Rid> rids(kBatch);
      bool ok[kBatch];
      for (Value b = 0; b < kPer; b += kBatch) {
        for (Value i = 0; i < kBatch; ++i) {
          const Value k = t * kStride + b + i;
          keys[i] = key_of(k);
          rids[i] = rid_of(t, k);
        }
        idx.InsertBatch(keys.data(), rids.data(), kBatch, ok);
        for (Value i = 0; i < kBatch; ++i) won[t][b + i] = ok[i];
      }
    });
  }
  for (auto& th : threads) th.join();

  const Value distinct = (kThreads - 1) * kStride + kPer;
  EXPECT_EQ(idx.size(), distinct);
  std::vector<Rid> winner(distinct, kInvalidRid);
  for (int t = 0; t < kThreads; ++t) {
    for (Value i = 0; i < kPer; ++i) {
      if (!won[t][i]) continue;
      const Value k = t * kStride + i;
      EXPECT_EQ(winner[k], kInvalidRid) << "two winners for key " << k;
      winner[k] = rid_of(t, k);
    }
  }
  std::vector<Value> keys(distinct);
  for (Value k = 0; k < distinct; ++k) keys[k] = key_of(k);
  std::vector<Rid> out(distinct, 0);
  idx.MultiGet(keys.data(), distinct, out.data());
  for (Value k = 0; k < distinct; ++k) {
    ASSERT_NE(winner[k], kInvalidRid) << "no winner for key " << k;
    ASSERT_EQ(out[k], winner[k]) << k;
  }
}

TEST(SecondaryIndexTest, LookupReturnsCandidates) {
  SecondaryIndex idx;
  idx.Add(50, 1);
  idx.Add(50, 2);
  idx.Add(60, 3);
  auto c = idx.Lookup(50);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(idx.Lookup(99).size(), 0u);
}

TEST(SecondaryIndexTest, DuplicatePostingsTolerated) {
  // The paper defers removal of changed values, so the same (v, rid)
  // may legitimately appear twice after an A->B->A update cycle.
  SecondaryIndex idx;
  idx.Add(50, 1);
  idx.Add(50, 1);
  EXPECT_EQ(idx.Lookup(50).size(), 2u);
}

TEST(SecondaryIndexTest, RangeLookupAcrossShards) {
  SecondaryIndex idx(4);
  for (Value v = 0; v < 100; ++v) idx.Add(v, v + 1000);
  auto c = idx.LookupRange(10, 19);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.front(), 1010u);
  EXPECT_EQ(c.back(), 1019u);
}

TEST(SecondaryIndexTest, MarkStaleThenGarbageCollect) {
  SecondaryIndex idx;
  idx.Add(50, 1);
  idx.Add(50, 2);
  idx.MarkStale(50, 1);
  // Stale postings remain visible until GC (old snapshots may need
  // them, Section 3.1 footnote 3).
  EXPECT_EQ(idx.Lookup(50).size(), 2u);
  EXPECT_EQ(idx.GarbageCollect(), 1u);
  auto c = idx.Lookup(50);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], 2u);
}

TEST(SecondaryIndexTest, ValidatorDrivenGc) {
  SecondaryIndex idx;
  idx.Add(50, 1);
  idx.Add(50, 2);
  idx.Add(60, 3);
  size_t removed = idx.GarbageCollect(
      [](Value v, Rid rid) { return v == 50 && rid == 1; });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(SecondaryIndexTest, GcRemovesEmptyValueEntries) {
  SecondaryIndex idx;
  idx.Add(50, 1);
  idx.MarkStale(50, 1);
  idx.GarbageCollect();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.Lookup(50).size(), 0u);
}

}  // namespace
}  // namespace lstore
