// Tests for pages, the lazy page list, and the tail segment
// (Sections 2.1/2.2: append-only tail pages with lazily allocated,
// aligned columns pre-filled with the special null value).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "storage/page.h"
#include "storage/tail_segment.h"

namespace lstore {
namespace {

TEST(PageTest, FillValueIsSpecialNull) {
  Page page(64);
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(page.Get(i), kNull);
}

TEST(PageTest, EveryFillReadsBackAtEverySlot) {
  // ∅ and 0 take the uniform-byte fill, 7 the per-slot one.
  for (Value fill : {kNull, Value{0}, Value{7}}) {
    Page page(512, fill);
    for (uint32_t i = 0; i < 512; ++i) ASSERT_EQ(page.Get(i), fill) << i;
  }
}

TEST(PageTest, SetGetRoundTrip) {
  Page page(16, 0);
  page.Set(3, 12345);
  EXPECT_EQ(page.Get(3), 12345u);
  EXPECT_EQ(page.Get(4), 0u);
}

TEST(PageTest, CompareAndSwap) {
  Page page(4, 7);
  Value expected = 7;
  EXPECT_TRUE(page.CompareAndSwap(0, expected, 9));
  EXPECT_EQ(page.Get(0), 9u);
  expected = 7;
  EXPECT_FALSE(page.CompareAndSwap(0, expected, 11));
  EXPECT_EQ(expected, 9u);
}

TEST(LazyPageListTest, AbsentPagesReadAsNull) {
  LazyPageList list;
  EXPECT_EQ(list.GetPage(0), nullptr);
  EXPECT_EQ(list.GetPage(1000), nullptr);
}

TEST(LazyPageListTest, EnsureAllocatesOnce) {
  LazyPageList list;
  Page* a = list.EnsurePage(5, 64);
  Page* b = list.EnsurePage(5, 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(list.allocated_pages(), 1u);
  EXPECT_EQ(list.GetPage(4), nullptr);
}

TEST(LazyPageListTest, GrowthPreservesEarlierPages) {
  LazyPageList list;
  Page* a = list.EnsurePage(0, 8);
  a->Set(0, 42);
  list.EnsurePage(1000, 8);  // forces directory growth
  EXPECT_EQ(list.GetPage(0), a);
  EXPECT_EQ(list.GetPage(0)->Get(0), 42u);
}

TEST(LazyPageListTest, DropPagesBelowFreesPrefixOnly) {
  LazyPageList list;
  for (uint32_t i = 0; i < 10; ++i) list.EnsurePage(i, 8);
  list.DropPagesBelow(5);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(list.GetPage(i), nullptr);
  for (uint32_t i = 5; i < 10; ++i) EXPECT_NE(list.GetPage(i), nullptr);
}

TEST(TailSegmentTest, SequenceStartsAtOne) {
  TailSegment seg(4, 16);
  EXPECT_EQ(seg.LastSeq(), 0u);
  EXPECT_EQ(seg.ReserveSeq(), 1u);
  EXPECT_EQ(seg.ReserveSeq(), 2u);
  EXPECT_EQ(seg.LastSeq(), 2u);
}

TEST(TailSegmentTest, UnmaterializedColumnsReadAsNull) {
  // Section 2.1: "non-updated columns are preassigned a special null
  // value when a page is first allocated" — and columns never touched
  // are not materialized at all.
  TailSegment seg(4, 16);
  uint32_t seq = seg.ReserveSeq();
  seg.Write(seq, kTailMetaColumns + 1, 99);  // touch only column 1
  EXPECT_EQ(seg.Read(seq, kTailMetaColumns + 1), 99u);
  EXPECT_EQ(seg.Read(seq, kTailMetaColumns + 0), kNull);
  EXPECT_EQ(seg.Read(seq, kTailMetaColumns + 3), kNull);
}

TEST(TailSegmentTest, LazyAllocationCountsPages) {
  TailSegment seg(4, 16);
  EXPECT_EQ(seg.allocated_pages(), 0u);
  uint32_t seq = seg.ReserveSeq();
  seg.Write(seq, kTailMetaColumns + 2, 1);
  EXPECT_EQ(seg.allocated_pages(), 1u);  // only the touched column
}

TEST(TailSegmentTest, RecordsSpanAlignedColumns) {
  TailSegment seg(2, 4);  // tiny pages to cross boundaries
  for (int i = 0; i < 20; ++i) {
    uint32_t seq = seg.ReserveSeq();
    seg.Write(seq, kTailMetaColumns + 0, seq * 10);
    seg.Write(seq, kTailMetaColumns + 1, seq * 100);
    seg.Write(seq, kTailLink, TailLink(seq - 1, 1000 + seq));
  }
  for (uint32_t seq = 1; seq <= 20; ++seq) {
    EXPECT_EQ(seg.Read(seq, kTailMetaColumns + 0), seq * 10);
    EXPECT_EQ(seg.Read(seq, kTailMetaColumns + 1), seq * 100);
    EXPECT_EQ(TailLinkBack(seg.Read(seq, kTailLink)), seq - 1);
    EXPECT_EQ(TailLinkSlot(seg.Read(seq, kTailLink)), 1000 + seq);
  }
}

TEST(TailSegmentTest, StartTimeSlotIsAtomic) {
  TailSegment seg(1, 8);
  uint32_t seq = seg.ReserveSeq();
  std::atomic<Value>* slot = seg.StartTimeSlot(seq);
  slot->store(123, std::memory_order_release);
  EXPECT_EQ(seg.Read(seq, kTailStartTime), 123u);
}

TEST(TailSegmentTest, AdvanceSeqForRecovery) {
  TailSegment seg(1, 8);
  seg.AdvanceSeq(50);
  EXPECT_EQ(seg.LastSeq(), 50u);
  seg.AdvanceSeq(10);  // never regresses
  EXPECT_EQ(seg.LastSeq(), 50u);
  EXPECT_EQ(seg.ReserveSeq(), 51u);
}

TEST(TailSegmentTest, DropRecordsBelowKeepsPartialPages) {
  TailSegment seg(1, 4);
  for (int i = 0; i < 12; ++i) {
    uint32_t seq = seg.ReserveSeq();
    seg.Write(seq, kTailMetaColumns, seq);
  }
  // Keep from seq 6: page 0 (seqs 1-4) dropped; page 1 (5-8) kept
  // because it holds seq >= 6.
  seg.DropRecordsBelow(6);
  EXPECT_EQ(seg.Read(2, kTailMetaColumns), kNull);
  EXPECT_EQ(seg.Read(6, kTailMetaColumns), 6u);
  EXPECT_EQ(seg.Read(12, kTailMetaColumns), 12u);
}

TEST(TailSegmentTest, ConcurrentAppendsGetDistinctSlots) {
  TailSegment seg(2, 64);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint32_t seq = seg.ReserveSeq();
        seg.Write(seq, kTailMetaColumns, static_cast<uint64_t>(t) << 32 | seq);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(seg.LastSeq(), static_cast<uint32_t>(kThreads * kPerThread));
  for (uint32_t seq = 1; seq <= seg.LastSeq(); ++seq) {
    Value v = seg.Read(seq, kTailMetaColumns);
    ASSERT_NE(v, kNull);
    EXPECT_EQ(v & 0xFFFFFFFFu, seq);  // write-once: no torn slots
  }
}

}  // namespace
}  // namespace lstore
