// Unit tests for the common runtime: Status, type encodings, the
// logical clock, bit utilities, latches, and random generators.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/clock.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/range_directory.h"
#include "common/status.h"
#include "common/types.h"

namespace lstore {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::Busy().IsBusy());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::Aborted("inner"); };
  auto outer = [&]() -> Status {
    LSTORE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsAborted());
}

TEST(TypesTest, TailRidRoundTrip) {
  Rid rid = MakeTailRid(12345, 678);
  EXPECT_TRUE(IsTailRid(rid));
  EXPECT_EQ(TailRidRange(rid), 12345u);
  EXPECT_EQ(TailRidSeq(rid), 678u);
}

TEST(TypesTest, BaseRidsAreNotTailRids) {
  EXPECT_FALSE(IsTailRid(0));
  EXPECT_FALSE(IsTailRid(123456789));
}

TEST(TypesTest, TxnIdTaggingDistinguishesTimes) {
  TxnId id = kTxnIdTag | 42;
  EXPECT_TRUE(IsTxnId(id));
  EXPECT_FALSE(IsTxnId(42));
  EXPECT_FALSE(IsTxnId(kAbortedStamp));
  EXPECT_TRUE(IsAbortedStamp(kAbortedStamp));
}

TEST(TypesTest, IndirectionLatchBit) {
  uint64_t v = 99;
  EXPECT_FALSE(IndirLatched(v));
  EXPECT_TRUE(IndirLatched(v | kIndirLatchBit));
  EXPECT_EQ(IndirSeq(v | kIndirLatchBit), 99u);
}

TEST(TypesTest, IndirectionWordPacksHeadAndEverUpdatedBits) {
  const ColumnMask ever = 1ull << 1 | 1ull << 38 | 1ull << 39;
  const uint64_t w = IndirWord(kMaxTailSeq, ever);
  EXPECT_EQ(IndirSeq(w), kMaxTailSeq);
  EXPECT_EQ(IndirEver(w), ever & ~(1ull << 39));  // column 39 is not in it
  EXPECT_FALSE(IndirLatched(w));
  EXPECT_EQ(IndirEver(w | kIndirLatchBit), IndirEver(w));
  EXPECT_EQ(IndirSeq(w | kIndirLatchBit), kMaxTailSeq);
}

TEST(TypesTest, SchemaEncodingFlags) {
  uint64_t enc = 0b0101 | kSnapshotFlag;
  EXPECT_TRUE(IsSnapshotRecord(enc));
  EXPECT_FALSE(IsDeleteRecord(enc));
  EXPECT_EQ(SchemaColumns(enc), 0b0101u);
  EXPECT_TRUE(IsDeleteRecord(kDeleteFlag));
}

TEST(ClockTest, TickIsStrictlyMonotone) {
  LogicalClock clock;
  Timestamp a = clock.Tick();
  Timestamp b = clock.Tick();
  EXPECT_LT(a, b);
  EXPECT_EQ(clock.Now(), b);
}

TEST(ClockTest, AdvanceToNeverMovesBackwards) {
  LogicalClock clock;
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.Now(), 100u);
}

TEST(ClockTest, ConcurrentTicksAreUnique) {
  LogicalClock clock;
  constexpr int kThreads = 4, kTicks = 2000;
  std::vector<std::vector<Timestamp>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTicks; ++i) seen[t].push_back(clock.Tick());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Timestamp> all;
  for (auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kTicks));
}

TEST(BitUtilTest, PopCountAndBitsNeeded) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_EQ(BitsNeeded(0), 0);
  EXPECT_EQ(BitsNeeded(1), 1);
  EXPECT_EQ(BitsNeeded(255), 8);
  EXPECT_EQ(BitsNeeded(256), 9);
}

TEST(BitUtilTest, BitIterVisitsAllSetBits) {
  uint64_t mask = (1ull << 3) | (1ull << 17) | (1ull << 63);
  std::vector<int> bits;
  for (BitIter it(mask); it; ++it) bits.push_back(*it);
  EXPECT_EQ(bits, (std::vector<int>{3, 17, 63}));
}

TEST(BitUtilTest, ZigzagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{12345},
                    int64_t{-987654321}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes map to small codes (what makes varints compact).
  EXPECT_LE(ZigzagEncode(-3), 6u);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, ZipfianSkewsTowardSmallKeys) {
  ZipfianGenerator zipf(1000, 0.99, 3);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Next() < 100) ++low;  // first 10% of the key space
  }
  // Under uniform, low/total ~ 10%; Zipf 0.99 concentrates far more.
  EXPECT_GT(low, total / 3);
}

TEST(SpinLatchTest, MutualExclusionUnderContention) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SpinGuard g(latch);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 80000);
}

TEST(RWSpinLatchTest, SharedReadersDoNotBlockEachOther) {
  RWSpinLatch latch;
  latch.LockShared();
  EXPECT_TRUE(true);  // second shared acquire must not deadlock:
  latch.LockShared();
  latch.UnlockShared();
  latch.UnlockShared();
}

TEST(RWSpinLatchTest, ExclusiveExcludesReadersAndWriters) {
  RWSpinLatch latch;
  std::atomic<int> in_critical{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        latch.LockExclusive();
        if (in_critical.fetch_add(1) != 0) ok = false;
        in_critical.fetch_sub(1);
        latch.UnlockExclusive();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
}

TEST(RangeDirectoryTest, EnsureAndGetStopAtCapacity) {
  using Dir = RangeDirectory<uint64_t>;
  constexpr uint64_t kLast = Dir::kCapacity - 1;
  Dir dir;
  EXPECT_EQ(dir.Get(kLast), nullptr);
  for (uint64_t id : {uint64_t{0}, kLast}) {
    uint64_t* r = dir.Ensure(id, [id] { return new uint64_t(id); });
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, id);
    EXPECT_EQ(dir.Get(id), r);
    EXPECT_EQ(dir.Ensure(id, [] { return new uint64_t(0); }), r);
  }
  EXPECT_EQ(dir.size(), Dir::kCapacity);
  bool built = false;
  EXPECT_EQ(dir.Ensure(Dir::kCapacity,
                       [&] {
                         built = true;
                         return new uint64_t(0);
                       }),
            nullptr);
  EXPECT_FALSE(built);
  EXPECT_EQ(dir.Get(Dir::kCapacity), nullptr);
  EXPECT_EQ(dir.Get(~uint64_t{0}), nullptr);
  EXPECT_EQ(dir.size(), Dir::kCapacity);
}

TEST(RangeDirectoryTest, EnsureStopsAtAGivenLimit) {
  using Dir = RangeDirectory<uint64_t>;
  Dir dir(65535);
  EXPECT_EQ(dir.limit(), 65535u);
  uint64_t* r = dir.Ensure(65534, [] { return new uint64_t(65534); });
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(dir.Get(65534), r);
  EXPECT_EQ(dir.Ensure(65535, [] { return new uint64_t(0); }), nullptr);
  EXPECT_EQ(dir.Get(65535), nullptr);
  EXPECT_EQ(dir.size(), 65535u);
  // A limit past the capacity is the capacity.
  EXPECT_EQ(Dir(~uint64_t{0}).limit(), Dir::kCapacity);
}

TEST(RangeDirectoryTest, ConcurrentEnsureBuildsOneRange) {
  RangeDirectory<uint64_t> dir;
  constexpr uint64_t kId = 1500;  // in the second chunk
  std::atomic<int> built{0};
  std::vector<uint64_t*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = dir.Ensure(kId, [&] {
        built.fetch_add(1);
        return new uint64_t(kId);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(built.load(), 1);
  for (uint64_t* r : got) EXPECT_EQ(r, got[0]);
  EXPECT_EQ(dir.Get(kId), got[0]);
  EXPECT_EQ(dir.Get(kId - 1), nullptr);
  EXPECT_EQ(dir.size(), kId + 1);
}

}  // namespace
}  // namespace lstore
