// Background executor tests: the shared pool's posted tasks, the serial
// task queue (on the shared pool and on a given one), the executor's
// timers on an injected clock, and a durable database whose checkpoint
// trigger, reporter and watchdog are timers, stepped on a fake clock
// one interval at a time with no sleeps.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/thread_pool.h"
#include "core/database.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kMsNs = 1000000;

std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeNow() { return g_fake_now_ns.load(); }

// Per process: ctest also runs this binary on a one-worker pool, and the
// two may run at once.
std::string TestDir(const std::string& name) {
  return std::string(::testing::TempDir()) + name + "_" +
         std::to_string(::getpid());
}

size_t CountLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) n += line.empty() ? 0 : 1;
  return n;
}

// Occupies every worker of the shared pool with a task that waits for
// Release(), so a task posted meanwhile stays queued.
class BusyPool {
 public:
  BusyPool() {
    const uint32_t n = ThreadPool::Shared().num_threads();
    for (uint32_t i = 0; i < n; ++i) {
      ThreadPool::Shared().Post([this] {
        started_.fetch_add(1);
        while (!released_.load()) std::this_thread::yield();
        finished_.fetch_add(1);
      });
    }
    while (started_.load() != n) std::this_thread::yield();
  }
  ~BusyPool() { Release(); }
  void Release() {
    released_.store(true);
    while (finished_.load() != started_.load()) std::this_thread::yield();
  }

 private:
  std::atomic<uint32_t> started_{0};
  std::atomic<uint32_t> finished_{0};
  std::atomic<bool> released_{false};
};

TEST(ThreadPoolTest, SharedPoolRunsPostedTasksOnItsOwnThreads) {
  ASSERT_GE(ThreadPool::Shared().num_threads(), 1u);
  std::atomic<bool> done{false};
  std::thread::id ran_on;
  ThreadPool::Shared().Post([&] {
    ran_on = std::this_thread::get_id();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(SerialQueueTest, RunsInOrderOneAtATime) {
  SerialQueue q;
  std::vector<int> order;  // written by one task at a time
  std::atomic<int> running{0};
  std::atomic<int> overlaps{0};
  for (int i = 0; i < 200; ++i) {
    q.Post([&, i] {
      if (running.fetch_add(1) != 0) overlaps.fetch_add(1);
      order.push_back(i);
      running.fetch_sub(1);
    });
  }
  q.Drain();
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(SerialQueueTest, StopDropsPendingTasksAndWaitsForTheRunningOne) {
  SerialQueue q;
  std::atomic<int> gate{0};
  std::atomic<int> ran{0};
  q.Post([&] {
    gate.store(1);
    while (gate.load() != 2) std::this_thread::yield();
    ran.fetch_add(1);
  });
  // Each pending task holds a copy of `token`: Stop dropping them
  // leaves the test's the only one.
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 10; ++i) {
    q.Post([&ran, token] { ran.fetch_add(100); });
  }
  while (gate.load() != 1) std::this_thread::yield();
  std::thread stopper([&] { q.Stop(); });
  while (token.use_count() != 1) std::this_thread::yield();
  gate.store(2);  // Stop is waiting for the running task now
  stopper.join();
  EXPECT_EQ(ran.load(), 1);  // the running task finished; no other ran
  q.Post([&] { ran.fetch_add(1000); });  // refused once stopped
  q.Drain();
  EXPECT_EQ(ran.load(), 1);
}

// Stop waits for a running task only: with every pool worker busy, a
// queue whose task is still waiting for a worker stops at once, and the
// task never runs.
TEST(SerialQueueTest, StopDoesNotWaitForAWorker) {
  std::atomic<int> ran{0};
  auto token = std::make_shared<int>(0);  // held by the queued task
  {
    BusyPool busy;
    auto q = std::make_unique<SerialQueue>();
    q->Post([&ran, token] { ran.fetch_add(1); });
    q.reset();  // Stop, then destroy, with the task still queued
    EXPECT_EQ(token.use_count(), 1);  // dropped, not run later
  }
  EXPECT_EQ(ran.load(), 0);
}

// A queue names its pool: on a caller-given one-thread pool its tasks
// run in order on that pool's thread, while every worker of the shared
// pool is busy and could run none of them.
TEST(SerialQueueTest, RunsOnTheGivenPool) {
  BusyPool busy;
  ThreadPool pool(1);
  SerialQueue q(pool);
  std::vector<int> order;  // written by one task at a time
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 50; ++i) {
    q.Post([&, i] {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
  }
  q.Drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], ran_on[0]);
  }
  EXPECT_NE(ran_on[0], std::this_thread::get_id());

  // Stop waits for the running task; a post after it is ignored.
  std::atomic<int> gate{0};
  std::atomic<int> ran{0};
  std::atomic<bool> stopped{false};
  q.Post([&] {
    gate.store(1);
    while (gate.load() != 2) std::this_thread::yield();
    ran.fetch_add(1);
  });
  while (gate.load() != 1) std::this_thread::yield();
  std::thread stopper([&] {
    q.Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load());
  gate.store(2);
  stopper.join();
  EXPECT_EQ(ran.load(), 1);
  q.Post([&] { ran.fetch_add(10); });
  q.Drain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorTest, TimersFireOncePerElapsedPeriodOfTheirClock) {
  g_fake_now_ns.store(1 * kMsNs);
  Executor ex(&FakeNow);
  std::atomic<int> a{0}, b{0};
  ex.Every(10, [&] { a.fetch_add(1); });
  ex.Every(25, [&] { b.fetch_add(1); });
  ex.RunDue();
  EXPECT_EQ(a.load() + b.load(), 0);
  g_fake_now_ns.fetch_add(10 * kMsNs);  // 11 ms
  ex.RunDue();
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 0);
  g_fake_now_ns.fetch_add(100 * kMsNs);  // far past both: once each
  ex.RunDue();
  ex.RunDue();
  EXPECT_EQ(a.load(), 2);
  EXPECT_EQ(b.load(), 1);
  // A clock stepping back re-arms from its new reading.
  g_fake_now_ns.store(1 * kMsNs);
  ex.RunDue();
  g_fake_now_ns.fetch_add(9 * kMsNs);
  ex.RunDue();
  EXPECT_EQ(a.load(), 2);
  g_fake_now_ns.fetch_add(1 * kMsNs);
  ex.RunDue();
  EXPECT_EQ(a.load(), 3);
  ex.Stop();
  g_fake_now_ns.fetch_add(100 * kMsNs);
  ex.RunDue();  // a stopped executor fires nothing
  EXPECT_EQ(a.load(), 3);
}

TEST(ExecutorTest, RestartCountsThePeriodFromNow) {
  g_fake_now_ns.store(1 * kMsNs);
  Executor ex(&FakeNow);
  std::atomic<int> a{0};
  const size_t id = ex.Every(10, [&] { a.fetch_add(1); });
  ex.RunDue();
  g_fake_now_ns.store(8 * kMsNs);
  ex.Restart(id);
  g_fake_now_ns.store(11 * kMsNs);  // one period after arming
  ex.RunDue();
  EXPECT_EQ(a.load(), 0);
  g_fake_now_ns.store(18 * kMsNs);  // one period after the restart
  ex.RunDue();
  EXPECT_EQ(a.load(), 1);
}

// One durable database, its clock faked: each step moves the clock past
// one more timer's deadline, fires the due timers and drains the queue,
// and must do exactly one thing.
TEST(ExecutorDatabaseTest, EachIntervalDoesExactlyOneThing) {
  const std::string dir = TestDir("lstore_executor_db");
  fs::remove_all(dir);
  const std::string metrics_log = dir + "/metrics.log";
  std::atomic<int> park{0};
  {
    DurabilityOptions opts;
    opts.checkpoint_interval_ms = 100;
    opts.metrics_report_interval_ms = 150;
    opts.watchdog_interval_ms = 180;
    opts.health_slow_ms = 10;
    opts.health_stall_ms = 20;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, opts, &db).ok());
    g_fake_now_ns.store(1 * kMsNs);
    db->health().SetClockForTest(&FakeNow);
    Executor& ex = db->executor();
    SerialQueue& background = db->background();
    ex.RunDue();  // re-arms every timer at 1 ms
    background.Drain();

    TableConfig cfg;
    cfg.range_size = 64;
    cfg.insert_range_size = 64;
    cfg.tail_page_slots = 16;
    cfg.merge_threshold = 8;
    cfg.merge_test_park = &park;
    ASSERT_TRUE(db->CreateTable("t", Schema(2), cfg).ok());
    Table* t = db->GetTable("t");
    {
      Txn txn = db->Begin();
      for (Value k = 0; k < 64; ++k) ASSERT_TRUE(t->Insert(txn, {k, k}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    t->WaitForMergeQueue();

    CheckpointManager* cm = db->checkpoint_manager();
    const uint64_t checkpoints = cm->checkpoints_taken();
    const size_t lines = CountLines(metrics_log);
    auto step_to = [&](uint64_t ms) {
      g_fake_now_ns.store(ms * kMsNs);
      ex.RunDue();
      background.Drain();
    };

    step_to(101);  // the checkpoint interval
    EXPECT_EQ(cm->checkpoints_taken(), checkpoints + 1);
    EXPECT_TRUE(cm->last_background_status().ok());
    EXPECT_EQ(CountLines(metrics_log), lines);
    EXPECT_EQ(db->watchdog()->stall_dumps(), 0u);

    step_to(151);  // the reporter interval
    EXPECT_EQ(cm->checkpoints_taken(), checkpoints + 1);
    EXPECT_EQ(CountLines(metrics_log), lines + 1);

    // Park the next merge task: busy and silent from 151 ms on.
    park.store(1);
    for (Value k = 0; k < 16; ++k) {
      Txn txn = db->Begin();
      ASSERT_TRUE(t->Update(txn, k, 0b10, {0, 100 + k}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    while (park.load() != 2) std::this_thread::yield();

    step_to(181);  // the watchdog interval: one sweep sees the stall
    EXPECT_EQ(cm->checkpoints_taken(), checkpoints + 1);
    EXPECT_EQ(CountLines(metrics_log), lines + 1);
    EXPECT_EQ(db->watchdog()->stall_dumps(), 1u);
    EXPECT_EQ(db->metrics().GetGauge("lstore_health_stalled")->value(), 1);
    size_t stall_events = 0;
    for (const Event& e : db->event_log().Recent(64)) {
      if (e.kind == "watchdog" && e.actor == "merge:t" &&
          e.fields.find("\"verdict\":\"stalled\"") != std::string::npos) {
        ++stall_events;
      }
    }
    EXPECT_EQ(stall_events, 1u);

    park.store(0);
    t->WaitForMergeQueue();
    // Close writes the reporter's final line.
    const size_t before_close = CountLines(metrics_log);
    db.reset();
    EXPECT_EQ(CountLines(metrics_log), before_close + 1);
  }
  fs::remove_all(dir);
}

// DropTable holds the DDL lock while the dropped table goes, and a
// background checkpoint waits for that lock. With every pool worker
// busy, a table whose merge task is queued behind a posted checkpoint
// is still dropped at once: ~Table waits for a running merge task only,
// never for a worker. Waiting for the queued task would deadlock on a
// one-worker pool, whose worker runs the checkpoint first.
TEST(ExecutorDatabaseTest, DropTableWithAMergeQueuedBehindACheckpoint) {
  const std::string dir = TestDir("lstore_executor_drop");
  fs::remove_all(dir);
  {
    DurabilityOptions opts;
    opts.checkpoint_interval_ms = 100;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, opts, &db).ok());
    g_fake_now_ns.store(1 * kMsNs);
    db->health().SetClockForTest(&FakeNow);
    db->executor().RunDue();  // re-arms the timer at 1 ms

    TableConfig cfg;
    cfg.range_size = 64;
    cfg.insert_range_size = 64;
    cfg.merge_threshold = 8;
    ASSERT_TRUE(db->CreateTable("a", Schema(2), cfg).ok());
    ASSERT_TRUE(db->CreateTable("b", Schema(2), cfg).ok());
    const uint64_t checkpoints = db->checkpoint_manager()->checkpoints_taken();
    std::atomic<bool> dropped{false};
    std::thread dropper;
    {
      BusyPool busy;
      g_fake_now_ns.store(101 * kMsNs);
      db->executor().RunDue();  // the checkpoint: queued for a worker
      Table* b = db->GetTable("b");
      Txn txn = db->Begin();
      for (Value k = 0; k < 256; ++k) ASSERT_TRUE(b->Insert(txn, {k, k}).ok());
      ASSERT_TRUE(txn.Commit().ok());  // b's merges: queued behind it
      dropper = std::thread([&] {
        EXPECT_TRUE(db->DropTable("b").ok());
        dropped.store(true);
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!dropped.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_TRUE(dropped.load()) << "DropTable waited for a pool worker";
    }
    dropper.join();
    db->background().Drain();
    EXPECT_EQ(db->checkpoint_manager()->checkpoints_taken(), checkpoints + 1);
    EXPECT_TRUE(db->checkpoint_manager()->last_background_status().ok());
    EXPECT_EQ(db->GetTable("b"), nullptr);
    EXPECT_NE(db->GetTable("a"), nullptr);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lstore
