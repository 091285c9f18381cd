// Ownership Relaying protocol tests (Section 5.2): the pageLSN is
// maintained by at most one exclusive-latch holder per writer burst,
// all writers otherwise share latches, and the starvation valve forces
// periodic drains.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "log/page_lsn.h"

namespace lstore {
namespace {

TEST(OrProtocolTest, SingleWriterUpdatesPageLsn) {
  OrProtocolPage page;
  page.BeginWrite();
  page.EndWrite(5);
  EXPECT_EQ(page.page_lsn(), 5u);
  EXPECT_EQ(page.owner_lsn(), 5u);
  EXPECT_EQ(page.exclusive_promotions(), 1u);
}

TEST(OrProtocolTest, SequentialWritersMonotonePageLsn) {
  OrProtocolPage page;
  for (uint64_t lsn = 1; lsn <= 10; ++lsn) {
    page.BeginWrite();
    page.EndWrite(lsn);
    EXPECT_EQ(page.page_lsn(), lsn);
  }
}

TEST(OrProtocolTest, ConcurrentWritersConvergeToMaxLsn) {
  // The core invariant: once all writers finish, pageLSN equals the
  // highest LSN any of them wrote — even though most writers never
  // took an exclusive latch.
  OrProtocolPage page;
  constexpr int kThreads = 8, kPerThread = 500;
  std::atomic<uint64_t> next_lsn{0};
  std::atomic<uint64_t> max_lsn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        page.BeginWrite();
        uint64_t lsn = next_lsn.fetch_add(1) + 1;
        uint64_t cur = max_lsn.load();
        while (cur < lsn && !max_lsn.compare_exchange_weak(cur, lsn)) {
        }
        page.EndWrite(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(page.page_lsn(), max_lsn.load());
  EXPECT_EQ(page.page_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(OrProtocolTest, PromotionsAreFarFewerThanWriters) {
  // "if there are 100 concurrent writers, then only one writer will
  // get an exclusive latch on behalf of all the writers" — in bursts,
  // promotions << writes. Each burst holds every writer inside its
  // shared section at a barrier, so the writers overlap by
  // construction rather than by scheduling luck; a second barrier
  // keeps the next burst out until this one has drained.
  OrProtocolPage page(/*flush_threshold=*/1u << 30);
  constexpr int kThreads = 8, kPerThread = 2000;
  std::atomic<uint64_t> next_lsn{0};
  std::barrier inside(kThreads), drained(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        page.BeginWrite();
        inside.arrive_and_wait();
        page.EndWrite(next_lsn.fetch_add(1) + 1);
        drained.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(page.page_lsn(), total);
  // Overlapping writers relay ownership: one promotion per burst.
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_LT(page.exclusive_promotions(), total);
  } else {
    EXPECT_LE(page.exclusive_promotions(), total);
  }
}

TEST(OrProtocolTest, StarvationValveForcesDrains) {
  OrProtocolPage page(/*flush_threshold=*/64);
  constexpr int kThreads = 4, kPerThread = 1000;
  std::atomic<uint64_t> next_lsn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        page.BeginWrite();
        page.EndWrite(next_lsn.fetch_add(1) + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(page.page_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(page.forced_drains(), 0u);
}

TEST(OrProtocolTest, OutOfOrderLsnCompletionIsHandled) {
  // Writer with the lower LSN finishes LAST: ownership must already
  // have moved to the higher LSN, and the low writer must not regress
  // the pageLSN.
  OrProtocolPage page;
  page.BeginWrite();  // writer A (this thread)
  std::thread b([&] {
    page.BeginWrite();
    page.EndWrite(10);  // B: owner; its promotion waits for A to drain
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  page.EndWrite(3);  // A: lower LSN, not the owner -> releases shared
  b.join();
  EXPECT_EQ(page.page_lsn(), 10u);
  EXPECT_EQ(page.owner_lsn(), 10u);
}

TEST(OrProtocolTest, StressManyPagesManyWriters) {
  constexpr int kPages = 4, kThreads = 4, kOps = 3000;
  std::vector<OrProtocolPage> pages(kPages);
  std::atomic<uint64_t> next_lsn{0};
  std::vector<uint64_t> page_max(kPages, 0);
  std::mutex max_mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t seed = t * 2654435761u + 1;
      for (int i = 0; i < kOps; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        int p = static_cast<int>((seed >> 33) % kPages);
        pages[p].BeginWrite();
        uint64_t lsn = next_lsn.fetch_add(1) + 1;
        {
          std::lock_guard<std::mutex> g(max_mu);
          if (lsn > page_max[p]) page_max[p] = lsn;
        }
        pages[p].EndWrite(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int p = 0; p < kPages; ++p) {
    EXPECT_EQ(pages[p].page_lsn(), page_max[p]) << "page " << p;
  }
}

}  // namespace
}  // namespace lstore
