// Tests for the primary hash index (key -> base RID; indexes only ever
// reference base records, Section 2.2) and the secondary index with
// lazy posting removal (Section 3.1, footnote 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/primary_index.h"
#include "index/secondary_index.h"

namespace lstore {
namespace {

/// A base for keys past 2^32, which take the index's 12-byte slots.
constexpr Value kWideKeys = Value{1} << 40;

/// A fixed shuffle of `v` (Fisher-Yates).
void Shuffle(std::vector<Value>* v, uint64_t seed) {
  Random rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

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
  // Dense keys go in shuffled, so none continues a line.
  for (const Case& c : {Case{false, 12, 14.5}, Case{true, 8, 9.5}}) {
    SCOPED_TRACE(c.dense ? "dense" : "random");
    // One shard, so its runs grow and merge a few dozen times.
    PrimaryIndex idx(1);
    Random rng(17);
    std::vector<Value> keys(50000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = c.dense ? static_cast<Value>(i) : rng.Next();
    }
    if (c.dense) Shuffle(&keys, 17);
    size_t rehashes = 0, last_bytes = idx.byte_size();
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(idx.Insert(keys[i], static_cast<Rid>(i)));
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

// --- line entries ------------------------------------------------------------

/// `n` keys from `key0` a `stride` apart, naming RIDs from `rid0`, in
/// `batch`-key InsertBatch calls; every key must go in.
void LoadLine(PrimaryIndex* idx, Value key0, Value stride, Rid rid0, Value n,
              size_t batch = 1024) {
  std::vector<Value> keys;
  std::vector<Rid> rids;
  for (Value b = 0; b < n; b += batch) {
    keys.clear();
    rids.clear();
    for (Value i = b; i < std::min<Value>(n, b + batch); ++i) {
      keys.push_back(key0 + i * stride);
      rids.push_back(rid0 + i);
    }
    std::unique_ptr<bool[]> ok(new bool[keys.size()]);
    idx->InsertBatch(keys.data(), rids.data(), keys.size(), ok.get());
    for (size_t i = 0; i < keys.size(); ++i) ASSERT_TRUE(ok[i]) << b + i;
  }
}

TEST(PrimaryIndexLineTest, AscendingBatchesTakeOneEntry) {
  const size_t headers = PrimaryIndex().byte_size();
  constexpr Value kKeys = Value{1} << 20;
  PrimaryIndex idx;
  LoadLine(&idx, 0, 1, 0, kKeys);
  EXPECT_EQ(idx.byte_size(), headers + PrimaryIndex::kLineBytes);
  EXPECT_EQ(idx.size(), kKeys);
  for (Value k = 0; k < kKeys; k += 997) ASSERT_EQ(idx.Get(k), k);
  EXPECT_EQ(idx.Get(kKeys), kInvalidRid);
  std::vector<Value> keys = {kKeys - 1, 5, kKeys, 0, kKeys + 7, 77};
  std::vector<Rid> out(keys.size());
  idx.MultiGet(keys.data(), keys.size(), out.data());
  EXPECT_EQ(out, (std::vector<Rid>{kKeys - 1, 5, kInvalidRid, 0, kInvalidRid,
                                   77}));
}

TEST(PrimaryIndexLineTest, ShortLinesAndSingleInsertsStayInTheShards) {
  const size_t headers = PrimaryIndex(1).byte_size();
  {
    PrimaryIndex idx(1);
    LoadLine(&idx, 0, 1, 0, PrimaryIndex::kMinLine - 1);
    EXPECT_GT(idx.byte_size(), headers + PrimaryIndex::kLineBytes);
  }
  {
    PrimaryIndex idx(1);
    for (Value k = 0; k < 1000; ++k) ASSERT_TRUE(idx.Insert(k, k));
    EXPECT_GT(idx.byte_size(), headers + 1000 * 8);
  }
  // A line, then single inserts that continue it: still one entry.
  PrimaryIndex idx(1);
  LoadLine(&idx, 0, 1, 0, PrimaryIndex::kMinLine);
  for (Value k = PrimaryIndex::kMinLine; k < 1000; ++k) {
    ASSERT_TRUE(idx.Insert(k, k));
  }
  EXPECT_EQ(idx.byte_size(), headers + PrimaryIndex::kLineBytes);
  // One batch whose middle continues it: the key before goes to the
  // shards, the rest extends the entry.
  std::vector<Value> keys = {5000, 1000, 1001};
  std::vector<Rid> rids = {999, 1000, 1001};
  bool ok[3];
  idx.InsertBatch(keys.data(), rids.data(), 1, ok);
  EXPECT_TRUE(ok[0]);
  const size_t with_shard_key = idx.byte_size();
  EXPECT_GT(with_shard_key, headers + PrimaryIndex::kLineBytes);
  idx.InsertBatch(keys.data() + 1, rids.data() + 1, 2, ok);
  EXPECT_TRUE(ok[0] && ok[1]);
  EXPECT_EQ(idx.byte_size(), with_shard_key);
  EXPECT_EQ(idx.size(), 1003u);
  for (Value k = 0; k < 1002; ++k) ASSERT_EQ(idx.Get(k), k);
  EXPECT_EQ(idx.Get(5000), 999u);
}

TEST(PrimaryIndexLineTest, EraseTrimsAndSplitsAnEntry) {
  constexpr Value kKeys = 4096;
  for (const Value base : {Value{0}, kWideKeys}) {
    for (const Value stride : {Value{1}, Value{7}}) {
      SCOPED_TRACE(testing::Message() << "base " << base << " stride "
                                      << stride);
      PrimaryIndex idx;
      const size_t headers = idx.byte_size();
      LoadLine(&idx, base, stride, 100, kKeys);
      auto key = [&](Value i) { return base + i * stride; };
      // First, middle and last key.
      const std::vector<Value> erased = {0, kKeys / 2, kKeys - 1};
      for (Value i : erased) {
        ASSERT_TRUE(idx.Erase(key(i)));
        EXPECT_FALSE(idx.Erase(key(i)));
      }
      EXPECT_EQ(idx.size(), kKeys - erased.size());
      // The split added an entry: a 2-entry array, beside the 1-entry
      // one that readers may still search.
      EXPECT_EQ(idx.byte_size(), headers + 3 * PrimaryIndex::kLineBytes);
      auto gone = [&](Value i) {
        return std::find(erased.begin(), erased.end(), i) != erased.end();
      };
      for (Value i = 0; i < kKeys; ++i) {
        ASSERT_EQ(idx.Get(key(i)), gone(i) ? kInvalidRid : 100 + i) << i;
        // Keys between a line's keys are not on it.
        if (stride > 1) {
          ASSERT_EQ(idx.Get(key(i) + 3), kInvalidRid) << i;
        }
      }
      std::vector<Value> probe;
      for (Value i = 0; i < kKeys; i += 5) probe.push_back(key(i));
      probe.push_back(key(kKeys / 2) + 1);
      std::vector<Rid> out(probe.size());
      idx.MultiGet(probe.data(), probe.size(), out.data());
      for (size_t j = 0; j + 1 < probe.size(); ++j) {
        const Value i = j * 5;
        ASSERT_EQ(out[j], gone(i) ? kInvalidRid : 100 + i) << i;
      }
      EXPECT_EQ(out.back(), stride > 1 ? kInvalidRid : 100 + kKeys / 2 + 1);
      // Each erased key re-inserts into the shards, with any RID.
      for (Value i : erased) {
        ASSERT_TRUE(idx.Insert(key(i), 9000 + i));
        EXPECT_FALSE(idx.Insert(key(i), 100 + i));
        EXPECT_EQ(idx.Get(key(i)), 9000 + i);
      }
      EXPECT_GT(idx.byte_size(), headers + 3 * PrimaryIndex::kLineBytes);
      EXPECT_EQ(idx.size(), kKeys);
    }
  }
}

TEST(PrimaryIndexLineTest, DuplicatesRefusedBetweenLinesAndShards) {
  constexpr Value kKeys = 1024;
  for (const Value base : {Value{0}, kWideKeys}) {
    for (const Value stride : {Value{1}, Value{7}}) {
      SCOPED_TRACE(testing::Message() << "base " << base << " stride "
                                      << stride);
      auto key = [&](Value i) { return base + i * stride; };
      std::vector<Value> keys(kKeys);
      std::vector<Rid> rids(kKeys);
      for (Value i = 0; i < kKeys; ++i) {
        keys[i] = key(i);
        rids[i] = i;
      }
      std::unique_ptr<bool[]> ok(new bool[kKeys]);

      // A line against the shards: keys already there stop it becoming
      // an entry, and only they are refused.
      {
        PrimaryIndex idx;
        const std::vector<Value> taken = {0, 500, kKeys - 1};
        for (Value i : taken) ASSERT_TRUE(idx.Insert(key(i), 5000 + i));
        idx.InsertBatch(keys.data(), rids.data(), kKeys, ok.get());
        for (Value i = 0; i < kKeys; ++i) {
          const bool dup =
              std::find(taken.begin(), taken.end(), i) != taken.end();
          ASSERT_EQ(ok[i], !dup) << i;
          ASSERT_EQ(idx.Get(key(i)), dup ? 5000 + i : i) << i;
        }
        EXPECT_EQ(idx.size(), kKeys);
      }

      // The shards against a line: its keys are refused, single or
      // batched, whole batches included.
      {
        PrimaryIndex idx;
        idx.InsertBatch(keys.data(), rids.data(), kKeys, ok.get());
        const size_t bytes = idx.byte_size();
        EXPECT_EQ(bytes, PrimaryIndex().byte_size() + PrimaryIndex::kLineBytes);
        EXPECT_FALSE(idx.Insert(key(0), 7));
        EXPECT_FALSE(idx.Insert(key(kKeys - 1), 7));
        EXPECT_FALSE(idx.Insert(key(300), 7));
        idx.InsertBatch(keys.data(), rids.data(), kKeys, ok.get());
        for (Value i = 0; i < kKeys; ++i) ASSERT_FALSE(ok[i]) << i;
        std::vector<Rid> shifted(kKeys);
        for (Value i = 0; i < kKeys; ++i) shifted[i] = 10000 + i;
        idx.InsertBatch(keys.data(), shifted.data(), kKeys, ok.get());
        for (Value i = 0; i < kKeys; ++i) ASSERT_FALSE(ok[i]) << i;
        const std::vector<Value> mixed = {key(kKeys) + 99, key(10), key(5),
                                          key(kKeys) + 98};
        const std::vector<Rid> mixed_rids = {1, 2, 3, 4};
        bool mixed_ok[4];
        idx.InsertBatch(mixed.data(), mixed_rids.data(), 4, mixed_ok);
        EXPECT_TRUE(mixed_ok[0]);
        EXPECT_FALSE(mixed_ok[1]);
        EXPECT_FALSE(mixed_ok[2]);
        EXPECT_TRUE(mixed_ok[3]);
        EXPECT_EQ(idx.size(), kKeys + 2);
        for (Value i = 0; i < kKeys; ++i) ASSERT_EQ(idx.Get(key(i)), i) << i;
        // A key between two of the line's keys is no duplicate.
        if (stride > 1) {
          EXPECT_TRUE(idx.Insert(key(300) + 1, 8));
          EXPECT_EQ(idx.Get(key(300) + 1), 8u);
        }
      }
    }
  }
}

TEST(PrimaryIndexLineTest, RepeatedKeyKeepsItsFirstOccurrence) {
  // A key in the shards' part of a batch, then again on a line later in
  // the same batch: the first one wins, and the line is refused whole.
  for (const bool line_first : {false, true}) {
    SCOPED_TRACE(line_first ? "line first" : "line second");
    PrimaryIndex idx;
    std::vector<Value> keys;
    std::vector<Rid> rids;
    auto add_line = [&] {
      for (Value i = 0; i < 256; ++i) {
        keys.push_back(1000 + i);
        rids.push_back(rids.empty() ? 0 : rids.back() + 1);
      }
    };
    if (line_first) add_line();
    keys.push_back(1100);
    rids.push_back(50000);
    if (!line_first) add_line();
    std::unique_ptr<bool[]> ok(new bool[keys.size()]);
    idx.InsertBatch(keys.data(), rids.data(), keys.size(), ok.get());
    for (size_t i = 0; i < keys.size(); ++i) {
      const bool first =
          keys[i] != 1100 || rids[i] == (line_first ? 100 : 50000);
      ASSERT_EQ(ok[i], first) << i;
      if (first) {
        ASSERT_EQ(idx.Get(keys[i]), rids[i]) << i;
      }
    }
    EXPECT_EQ(idx.size(), 256u);
  }
}

TEST(PrimaryIndexLineTest, AbortedBatchErasedInWritesetOrderLeavesNoEntry) {
  constexpr Value kKeys = 1024;
  for (const bool reverse : {false, true}) {
    PrimaryIndex idx;
    const size_t headers = idx.byte_size();
    LoadLine(&idx, 0, 1, 0, kKeys);
    for (Value j = 0; j < kKeys; ++j) {
      const Value k = reverse ? kKeys - 1 - j : j;
      ASSERT_TRUE(idx.Erase(k));
      ASSERT_EQ(idx.Get(k), kInvalidRid);
    }
    EXPECT_EQ(idx.size(), 0u);
    // No split: the one entry's array stays, and nothing else.
    EXPECT_EQ(idx.byte_size(), headers + PrimaryIndex::kLineBytes);
    for (Value k = 0; k < kKeys; ++k) ASSERT_EQ(idx.Get(k), kInvalidRid);
    // The keys load again, to other RIDs, as one entry.
    LoadLine(&idx, 0, 1, 5000, kKeys);
    EXPECT_EQ(idx.byte_size(), headers + PrimaryIndex::kLineBytes);
    for (Value k = 0; k < kKeys; ++k) ASSERT_EQ(idx.Get(k), 5000 + k);
  }
}

TEST(PrimaryIndexLineTest, LinesNearTheEndsOfTheKeyAndRidSpaces) {
  PrimaryIndex idx;
  constexpr Value kKeys = 128;
  constexpr Rid kMax = PrimaryIndex::kMaxRid;
  // The last keys, up to ~0, naming RIDs up to kMaxRid.
  LoadLine(&idx, ~Value{0} - (kKeys - 1) * 3, 3, kMax - (kKeys - 1), kKeys);
  EXPECT_EQ(idx.Get(~Value{0}), kMax);
  EXPECT_EQ(idx.Get(~Value{0} - 1), kInvalidRid);
  EXPECT_EQ(idx.byte_size(),
            PrimaryIndex().byte_size() + PrimaryIndex::kLineBytes);
  // A line past kMaxRid: refused key by key, in the shards' way.
  std::vector<Value> keys(kKeys);
  std::vector<Rid> rids(kKeys);
  for (Value i = 0; i < kKeys; ++i) {
    keys[i] = i;
    rids[i] = kMax - 10 + i;
  }
  std::unique_ptr<bool[]> ok(new bool[kKeys]);
  idx.InsertBatch(keys.data(), rids.data(), kKeys, ok.get());
  for (Value i = 0; i < kKeys; ++i) ASSERT_EQ(ok[i], rids[i] <= kMax) << i;
  EXPECT_EQ(idx.size(), kKeys + 11);
}

TEST(PrimaryIndexLineTest, ConcurrentLineAndSingleInsertsExactlyOneWins) {
  // One thread loads keys [0, kKeys) as lines in 1024-key batches;
  // two race it with single inserts of every third key, from both
  // ends, naming other RIDs. Each key has one winner.
  constexpr Value kKeys = 1 << 16;
  constexpr size_t kBatch = 1024;
  PrimaryIndex idx;
  std::vector<std::atomic<int>> wins(kKeys);
  std::vector<bool> line_won(kKeys);
  std::thread liner([&] {
    std::vector<Value> keys(kBatch);
    std::vector<Rid> rids(kBatch);
    bool ok[kBatch];
    for (Value b = 0; b < kKeys; b += kBatch) {
      for (size_t i = 0; i < kBatch; ++i) {
        keys[i] = b + i;
        rids[i] = b + i;
      }
      idx.InsertBatch(keys.data(), rids.data(), kBatch, ok);
      for (size_t i = 0; i < kBatch; ++i) {
        line_won[b + i] = ok[i];
        if (ok[i]) wins[b + i].fetch_add(1);
      }
    }
  });
  std::vector<std::thread> singles;
  for (int t = 0; t < 2; ++t) {
    singles.emplace_back([&, t] {
      for (Value j = 0; j < kKeys; j += 3) {
        const Value k = t == 0 ? j : kKeys - 1 - j;
        if (idx.Insert(k, 1000000 + k)) wins[k].fetch_add(1);
      }
    });
  }
  liner.join();
  for (auto& th : singles) th.join();
  EXPECT_EQ(idx.size(), kKeys);
  size_t on_lines = 0;
  for (Value k = 0; k < kKeys; ++k) {
    ASSERT_EQ(wins[k].load(), 1) << k;
    on_lines += line_won[k];
    ASSERT_EQ(idx.Get(k), line_won[k] ? k : 1000000 + k) << k;
  }
  EXPECT_GT(on_lines, 0u);
}

TEST(PrimaryIndexLineTest, ReadersNeverMissAKeyWhileEntriesChange) {
  // A writer extends one line batch by batch, and in each batch erases
  // two keys: the first splits the entry, the second trims the front of
  // the entry after the split. The last key of each batch is erased
  // too, trimming the back, so the next batch starts a new entry.
  // Readers loop over the acknowledged keys and must find every one;
  // the writer waits for some reads after each batch.
  constexpr Value kBatch = 1024, kBatches = 96;
  auto volatile_key = [](Value k) {
    return k % kBatch == 500 || k % kBatch == 501 || k % kBatch == kBatch - 1;
  };
  PrimaryIndex idx;
  std::atomic<Value> acked{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0}, reads{0};
  std::thread writer([&] {
    std::vector<Value> keys(kBatch);
    bool ok[kBatch];
    for (Value b = 0; b < kBatches * kBatch; b += kBatch) {
      for (Value i = 0; i < kBatch; ++i) keys[i] = b + i;
      idx.InsertBatch(keys.data(), keys.data(), kBatch, ok);
      acked.store(b + kBatch, std::memory_order_release);
      EXPECT_TRUE(idx.Erase(b + 500));
      EXPECT_TRUE(idx.Erase(b + 501));
      EXPECT_TRUE(idx.Erase(b + kBatch - 1));
      const uint64_t seen = reads.load();
      while (reads.load() < seen + 64) std::this_thread::yield();
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Random rng(t + 1);
      Value keys[8];
      Rid out[8];
      while (!done.load()) {
        const Value n = acked.load(std::memory_order_acquire);
        if (n == 0) continue;
        for (Value& k : keys) {
          do {
            k = rng.Uniform(n);
          } while (volatile_key(k));
        }
        for (Value k : keys) misses += idx.Get(k) != k;
        idx.MultiGet(keys, 8, out);
        for (int i = 0; i < 8; ++i) misses += out[i] != keys[i];
        reads += 16;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(idx.size(), kBatches * (kBatch - 3));
  // Each batch left two entries, before key 500 and after key 501, in
  // arrays that doubled to hold them: less than twice the last.
  EXPECT_LT(idx.byte_size(),
            PrimaryIndex().byte_size() +
                2 * std::bit_ceil(2 * kBatches) * PrimaryIndex::kLineBytes);
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
