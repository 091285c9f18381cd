// Observability substrate (src/obs/): counters, gauges, histograms,
// snapshots, renderers, and the engine wiring.
//
// The concurrency suites are the point: counter sharding must not lose
// increments under contention, and a histogram snapshot racing
// concurrent Record()s must stay internally consistent (count == sum
// of its buckets, quantiles monotone) — the design derives the count
// FROM the snapshotted buckets precisely so this holds. The Database
// integration test runs a durable cross-table workload with merges,
// checkpoints, and archiving, then asserts every subsystem reported.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/query.h"
#include "core/table.h"
#include "index/primary_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/client.h"
#include "server/server.h"
#include "sync_pause.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

// --- bucket math -----------------------------------------------------------

TEST(HistogramBuckets, ExactBelowFour) {
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(HistogramBuckets, BoundsContainValueWithin25Percent) {
  std::vector<uint64_t> probes = {4,    5,    7,      8,       100,
                                  1000, 4095, 123456, 1u << 30};
  for (uint64_t p = 4; p < (1ull << 40); p = p * 3 + 7) probes.push_back(p);
  probes.push_back(~0ull);  // clamps into the last row, must not crash
  for (uint64_t v : probes) {
    unsigned i = Histogram::BucketIndex(v);
    ASSERT_LT(i, Histogram::kBuckets) << v;
    uint64_t hi = Histogram::BucketUpperBound(i);
    if (v <= Histogram::BucketUpperBound(Histogram::kBuckets - 1)) {
      EXPECT_GE(hi, v) << v;
      // <= 25% relative width: the bound overestimates by at most 1/4.
      EXPECT_LE(hi, v + v / 4 + 1) << v;
    }
  }
  // Indices partition the value space: bounds strictly increase.
  for (unsigned i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_GT(Histogram::BucketUpperBound(i), Histogram::BucketUpperBound(i - 1))
        << i;
  }
}

// --- counter sharding ------------------------------------------------------

TEST(CounterTest, NoLostIncrementsUnderContention) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  g.Set(42);
  g.Add(-50);
  EXPECT_EQ(g.value(), -8);
}

// --- histogram percentiles -------------------------------------------------

TEST(HistogramTest, PercentilesBoundTheTrueQuantile) {
  Histogram h;
  // 1..1000: p50 is 500, p95 is 950, p99 is 990, p999 is 999.
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 1000u * 1001 / 2);
  struct Case {
    double q;
    uint64_t truth;
  } cases[] = {{0.5, 500}, {0.95, 950}, {0.99, 990}, {0.999, 999}};
  for (const Case& c : cases) {
    uint64_t est = s.Percentile(c.q);
    EXPECT_GE(est, c.truth) << c.q;             // bounded overestimate...
    EXPECT_LE(est, c.truth + c.truth / 4 + 1)   // ...within bucket width
        << c.q;
  }
  EXPECT_EQ(s.Percentile(0.0), s.Percentile(0.001));
  EXPECT_LE(s.Percentile(1.0), s.max_bound);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0u);
}

TEST(HistogramTest, SnapshotConsistentUnderConcurrentRecords) {
  Histogram h;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&h, &stop, t] {
      uint64_t v = 17 + t;
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v);
        v = v * 2654435761u % (1u << 20);
      }
    });
  }
  uint64_t last_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    HistogramSnapshot s = h.Snapshot();
    // The count is DERIVED from the snapshotted buckets, so these hold
    // even mid-race — a torn snapshot would break one of them.
    uint64_t bucket_sum = 0;
    for (uint64_t b : s.buckets) bucket_sum += b;
    ASSERT_EQ(s.count, bucket_sum);
    ASSERT_GE(s.count, last_count);  // monotone between snapshots
    last_count = s.count;
    uint64_t p50 = s.Percentile(0.5), p95 = s.Percentile(0.95),
             p99 = s.Percentile(0.99), p999 = s.Percentile(0.999);
    ASSERT_LE(p50, p95);
    ASSERT_LE(p95, p99);
    ASSERT_LE(p99, p999);
    if (s.count > 0) {
      ASSERT_LE(p999, s.max_bound);
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// --- registry --------------------------------------------------------------

TEST(RegistryTest, HandlesAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a_total", "first help wins");
  Counter* c2 = reg.GetCounter("a_total", "ignored");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(reg.GetGauge("g"), reg.GetGauge("g"));
  EXPECT_EQ(reg.GetHistogram("h_ns"), reg.GetHistogram("h_ns"));
  c1->Add(3);
  MetricsSnapshot s = reg.Snapshot();
  ASSERT_NE(s.FindCounter("a_total"), nullptr);
  EXPECT_EQ(s.FindCounter("a_total")->help, "first help wins");
  EXPECT_EQ(s.CounterValue("a_total"), 3u);
  EXPECT_EQ(s.CounterValue("missing"), 0u);
}

TEST(RegistryTest, CollectorsRunAtSnapshot) {
  MetricsRegistry reg;
  int runs = 0;
  reg.AddCollector([&runs](MetricsRegistry& r) {
    r.GetGauge("mirrored")->Set(++runs);
  });
  EXPECT_EQ(reg.Snapshot().FindGauge("mirrored")->value, 1);
  EXPECT_EQ(reg.Snapshot().FindGauge("mirrored")->value, 2);
}

TEST(RegistryTest, ConcurrentGetAndRecord) {
  MetricsRegistry reg;
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        reg.GetCounter("shared_total")->Add(1);
        reg.GetHistogram("shared_ns")->Record(i);
        if (i % 50 == 0) (void)reg.Snapshot();
      }
    });
  }
  for (auto& w : workers) w.join();
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("shared_total"), 8u * 200);
  EXPECT_EQ(s.FindHistogram("shared_ns")->hist.count, 8u * 200);
}

// --- renderers -------------------------------------------------------------

TEST(RenderTest, PrometheusExposition) {
  MetricsRegistry reg;
  reg.GetCounter("lstore_ops_total", "Operations")->Add(7);
  reg.GetGauge("lstore_depth", "Queue depth")->Set(-2);
  Histogram* h = reg.GetHistogram("lstore_lat_ns", "Latency");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);
  std::string text = reg.Snapshot().RenderPrometheus();

  EXPECT_NE(text.find("# HELP lstore_ops_total Operations"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lstore_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("lstore_ops_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lstore_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("lstore_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lstore_lat_ns summary"), std::string::npos);
  EXPECT_NE(text.find("lstore_lat_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lstore_lat_ns{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lstore_lat_ns_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("lstore_lat_ns_count 100\n"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // text ends with a newline
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
  }
}

TEST(RenderTest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("c_total")->Add(11);
  reg.GetGauge("g")->Set(5);
  reg.GetHistogram("h_ns")->Record(1000);
  std::string json = reg.Snapshot().RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"c_total\":11"), std::string::npos);
  EXPECT_NE(json.find("\"g\":5"), std::string::npos);
  EXPECT_NE(json.find("\"h_ns\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

// --- standalone table ------------------------------------------------------

TEST(TableMetricsTest, StandaloneTableOwnsARegistry) {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.insert_range_size = 64;
  cfg.merge_threshold = 16;
  cfg.enable_merge_thread = false;
  Table table("t", Schema(3), cfg);
  ASSERT_NE(table.metrics(), nullptr);

  Txn txn = table.Begin();
  for (Value k = 0; k < 512; ++k) {
    ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  Txn u = table.Begin();
  for (Value k = 0; k < 512; ++k) {
    ASSERT_TRUE(table.Update(u, k, 0b010, {0, k + 1, 0}).ok());
  }
  ASSERT_TRUE(u.Commit().ok());
  table.FlushAll();

  uint64_t sum = 0;
  ASSERT_TRUE(table.NewQuery().Workers(2).Sum(1, &sum).ok());

  MetricsSnapshot s = table.metrics()->Snapshot();
  EXPECT_GE(s.CounterValue("lstore_commits_total"), 2u);
  EXPECT_GT(s.CounterValue("lstore_merge_insert_rows_total"), 0u);
  EXPECT_GT(s.CounterValue("lstore_merge_rows_consolidated_total"), 0u);
  ASSERT_NE(s.FindGauge("lstore_epoch_pending"), nullptr);
  ASSERT_NE(s.FindGauge("lstore_primary_index_bytes"), nullptr);
  EXPECT_EQ(s.FindGauge("lstore_primary_index_bytes")->value,
            static_cast<int64_t>(table.PrimaryIndexBytes()));
  ASSERT_NE(s.FindGauge("lstore_base_resident_bytes"), nullptr);
  EXPECT_GT(s.FindGauge("lstore_base_resident_bytes")->value, 0);
  // Every one of the 8 ranges was updated: one 8-byte word per slot.
  ASSERT_NE(s.FindGauge("lstore_update_meta_bytes"), nullptr);
  EXPECT_EQ(s.FindGauge("lstore_update_meta_bytes")->value, 8 * 64 * 8);
  if (kTraceEnabled) {
    const auto* q = s.FindHistogram("lstore_query_partition_ns");
    ASSERT_NE(q, nullptr);
    EXPECT_GT(q->hist.count, 0u);
    const auto* m = s.FindHistogram("lstore_merge_update_ns");
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->hist.count, 0u);
  }
}

// The byte budget of L-Store's lineage metadata: an updated range pays
// one 8-byte Indirection word a slot, and a tail record three metadata
// words beside the columns it carries.
TEST(TableMetricsTest, LineageMetadataByteBudget) {
  TableConfig cfg;  // range_size 4096, tail pages of 512 slots
  cfg.enable_merge_thread = false;
  Table table("t", Schema(3), cfg);
  auto tail_bytes = [&] {
    return table.metrics()->Snapshot().GaugeValue("lstore_tail_bytes");
  };
  constexpr int64_t kPage = 512 * sizeof(Value);
  Txn txn = table.Begin();
  for (Value k = 0; k < 512; ++k) {
    ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  // One insert page for each of 3 data and 3 metadata columns.
  EXPECT_EQ(tail_bytes(), 6 * kPage);
  EXPECT_EQ(table.UpdateMetaBytes(), 0u);

  // Each key's first update of column 1 appends a pre-image and the new
  // version: 1,024 records, 2 pages in each of the 4 columns they touch
  // (link, start time, schema encoding, column 1).
  Txn u = table.Begin();
  for (Value k = 0; k < 512; ++k) {
    ASSERT_TRUE(table.Update(u, k, 0b010, {0, k + 1, 0}).ok());
  }
  ASSERT_TRUE(u.Commit().ok());
  EXPECT_EQ(table.RangeTailLength(0), 1024u);
  EXPECT_EQ(tail_bytes(), 6 * kPage + 4 * 2 * kPage);
  EXPECT_EQ(table.TailBytes(), static_cast<uint64_t>(tail_bytes()));
  EXPECT_EQ(table.UpdateMetaBytes(), uint64_t{cfg.range_size} * 8);
  EXPECT_EQ(
      table.metrics()->Snapshot().GaugeValue("lstore_update_meta_bytes"),
      int64_t{cfg.range_size} * 8);
}

// --- database integration --------------------------------------------------

class DatabaseMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_metrics_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  std::string dir_;
};

TEST_F(DatabaseMetricsTest, EverySubsystemReports) {
  DurabilityOptions opts;
  opts.sync_commit = true;
  opts.archive_enabled = true;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  ASSERT_TRUE(db->CreateTable("A", Schema({"k", "v"}), SmallConfig()).ok());
  ASSERT_TRUE(db->CreateTable("B", Schema({"k", "v"}), SmallConfig()).ok());
  Table* a = db->GetTable("A");
  Table* b = db->GetTable("B");

  // Cross-table commits from several threads so the log's group commit
  // actually batches: the first sync parks between its write and its
  // fsync until all four threads have appended a commit (three LSNs
  // each: an insert per table, then the commit record). Then
  // merges and a checkpoint (seals archives).
  std::vector<std::thread> workers;
  const uint64_t lsn0 = db->redo_log()->last_lsn();
  test::SyncPause pause;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (Value i = 0; i < 64; ++i) {
        Value k = t * 64 + i;
        Txn txn = db->Begin();
        ASSERT_TRUE(a->Insert(txn, {k, k}).ok());
        ASSERT_TRUE(b->Insert(txn, {k, k}).ok());
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  EXPECT_TRUE(pause.WaitParked(std::chrono::seconds(10)));
  EXPECT_TRUE(test::WaitUntil(
      [&] { return db->redo_log()->last_lsn() >= lsn0 + 4 * 3; },
      std::chrono::seconds(10)));
  pause.Release();
  for (auto& w : workers) w.join();
  {
    Txn txn = db->Begin();
    for (Value k = 0; k < 256; ++k) {
      ASSERT_TRUE(a->Update(txn, k, 0b10, {0, k + 1}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  a->FlushAll();
  ASSERT_TRUE(db->Checkpoint().ok());

  uint64_t sum = 0;
  ASSERT_TRUE(a->NewQuery().Workers(2).Sum(1, &sum).ok());

  MetricsSnapshot s = db->Metrics();
  // Commit pipeline + group commit.
  EXPECT_GE(s.CounterValue("lstore_commits_total"), 257u);
  EXPECT_GT(s.CounterValue("lstore_group_commit_batches_total"), 0u);
  ASSERT_NE(s.FindHistogram("lstore_group_commit_batch_size"), nullptr);
  const HistogramSnapshot& batch =
      s.FindHistogram("lstore_group_commit_batch_size")->hist;
  EXPECT_GT(batch.count, 0u);
  EXPECT_GT(batch.sum, batch.count);  // some write released several syncs
  // The one log: appends and fsyncs. Each cross-table commit appends
  // three frames (an insert run per table, then its one commit frame),
  // and no commit takes more than one fsync (the checkpoint adds one).
  EXPECT_GE(s.CounterValue("lstore_redo_appends_total"), 3u * 256 + 1);
  EXPECT_GT(s.CounterValue("lstore_redo_append_bytes_total"), 0u);
  EXPECT_GT(s.CounterValue("lstore_redo_fsyncs_total"), 0u);
  EXPECT_LE(s.CounterValue("lstore_redo_fsyncs_total"),
            s.CounterValue("lstore_commits_total") + 1);
  // Merge.
  EXPECT_GT(s.CounterValue("lstore_merge_rows_consolidated_total"), 0u);
  EXPECT_GT(s.CounterValue("lstore_merge_insert_rows_total"), 0u);
  // Checkpoint + archive.
  EXPECT_EQ(s.CounterValue("lstore_checkpoints_total"), 1u);
  EXPECT_GT(s.CounterValue("lstore_archive_seals_total"), 0u);
  // Buffer pool + epoch gauges (collector-mirrored).
  ASSERT_NE(s.FindGauge("lstore_buffer_hits"), nullptr);
  ASSERT_NE(s.FindGauge("lstore_buffer_misses"), nullptr);
  ASSERT_NE(s.FindGauge("lstore_buffer_evictions"), nullptr);
  ASSERT_NE(s.FindGauge("lstore_epoch_pending"), nullptr);
  // Resident-memory gauges, summed over tables; only A has merged base
  // segments. The indexes hold 512 keys below 2^32, inserted one at a
  // time by racing threads, so in the shards' 8-byte slots (a single
  // insert only extends a line entry, and there is none): at most 9.5
  // bytes per key beside each shard's header and first run (about 4
  // keys per shard here). IndexGaugeCountsLineEntries covers batches.
  const auto* index_bytes = s.FindGauge("lstore_primary_index_bytes");
  ASSERT_NE(index_bytes, nullptr);
  EXPECT_EQ(index_bytes->value, static_cast<int64_t>(a->PrimaryIndexBytes() +
                                                      b->PrimaryIndexBytes()));
  EXPECT_GE(index_bytes->value, 512 * 8);
  PrimaryIndex one_shard(1);
  const size_t shard_header = one_shard.byte_size();
  ASSERT_TRUE(one_shard.Insert(0, 0));
  const size_t first_run = one_shard.byte_size() - shard_header;
  EXPECT_LE(index_bytes->value, 512 * 9.5 + 2 * 64 * (shard_header + first_run));
  const auto* base_bytes = s.FindGauge("lstore_base_resident_bytes");
  ASSERT_NE(base_bytes, nullptr);
  EXPECT_EQ(base_bytes->value, static_cast<int64_t>(a->BaseResidentBytes()));
  EXPECT_GT(base_bytes->value, 0);
  EXPECT_EQ(b->BaseResidentBytes(), 0u);
  // Update metadata: A's 8 ranges were all updated, B never was.
  const auto* meta_bytes = s.FindGauge("lstore_update_meta_bytes");
  ASSERT_NE(meta_bytes, nullptr);
  EXPECT_EQ(meta_bytes->value, 8 * 32 * 8);
  EXPECT_EQ(a->UpdateMetaBytes(), 8u * 32 * 8);
  EXPECT_EQ(b->UpdateMetaBytes(), 0u);
  // Tail pages: B's inserts were never merged, so its pages remain.
  const auto* tail_bytes = s.FindGauge("lstore_tail_bytes");
  ASSERT_NE(tail_bytes, nullptr);
  EXPECT_EQ(tail_bytes->value,
            static_cast<int64_t>(a->TailBytes() + b->TailBytes()));
  EXPECT_GT(b->TailBytes(), 0u);
  // Stage timings (compiled in by default).
  if (kTraceEnabled) {
    for (const char* name :
         {"lstore_commit_queue_wait_ns", "lstore_redo_append_ns",
          "lstore_redo_flush_ns", "lstore_commit_publish_ns",
          "lstore_merge_insert_ns", "lstore_merge_update_ns",
          "lstore_query_partition_ns", "lstore_checkpoint_capture_ns",
          "lstore_checkpoint_truncate_ns", "lstore_archive_seal_ns"}) {
      const auto* h = s.FindHistogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_GT(h->hist.count, 0u) << name;
    }
  }
  // Both renderers produce something parseable-looking.
  EXPECT_NE(s.RenderPrometheus().find("lstore_commits_total"),
            std::string::npos);
  EXPECT_NE(s.RenderJson().find("lstore_commits_total"), std::string::npos);
}

// The primary-index gauge over a table loaded in key order, whose keys
// lie on one line and take one entry, and over one loaded with each
// batch shuffled, whose keys stay in the shards' 8-byte slots.
TEST_F(DatabaseMetricsTest, IndexGaugeCountsLineEntries) {
  constexpr Value kRows = Value{1} << 16;
  Database db;
  for (const char* name : {"ordered", "shuffled"}) {
    ASSERT_TRUE(db.CreateTable(name, Schema({"k", "v"}), SmallConfig()).ok());
  }
  Table* ordered = db.GetTable("ordered");
  Table* shuffled = db.GetTable("shuffled");
  Random rng(3);
  for (Value b = 0; b < kRows; b += 1024) {
    std::vector<std::vector<Value>> rows;
    for (Value k = b; k < b + 1024; ++k) rows.push_back({k, k});
    Txn txn = db.Begin();
    ASSERT_TRUE(ordered->InsertBatch(txn, rows).ok());
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.Uniform(i)]);
    }
    ASSERT_TRUE(shuffled->InsertBatch(txn, rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  const size_t headers = PrimaryIndex().byte_size();
  EXPECT_EQ(ordered->PrimaryIndexBytes(), headers + PrimaryIndex::kLineBytes);
  const size_t runs = shuffled->PrimaryIndexBytes() - headers;
  EXPECT_GE(runs, kRows * 8);
  EXPECT_LE(runs, kRows * 9.5);
  MetricsSnapshot s = db.Metrics();
  const auto* index_bytes = s.FindGauge("lstore_primary_index_bytes");
  ASSERT_NE(index_bytes, nullptr);
  EXPECT_EQ(index_bytes->value,
            static_cast<int64_t>(ordered->PrimaryIndexBytes() +
                                 shuffled->PrimaryIndexBytes()));
}

TEST_F(DatabaseMetricsTest, RestoreRecordsDuration) {
  DurabilityOptions opts;
  opts.archive_enabled = true;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  TableConfig cfg = SmallConfig();
  cfg.enable_merge_thread = true;
  ASSERT_TRUE(db->CreateTable("A", Schema({"k", "v"}), cfg).ok());
  Table* a = db->GetTable("A");
  Txn txn = db->Begin();
  ASSERT_TRUE(a->Insert(txn, {1, 2}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Timestamp point = db->Now() - 1;
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();

  std::unique_ptr<Database> rdb;
  ASSERT_TRUE(
      Database::RestoreToPoint(dir_, RestorePoint::AtTime(point), &rdb).ok());
  if (kTraceEnabled) {
    MetricsSnapshot s = rdb->Metrics();
    const auto* h = s.FindHistogram("lstore_restore_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist.count, 1u);
  }
  // A restored table is observable like an opened one: it records into
  // the database's registry and its merge tasks beat into Health().
  Table* ra = rdb->GetTable("A");
  ASSERT_NE(ra, nullptr);
  Txn rtxn = rdb->Begin();
  ASSERT_TRUE(ra->Insert(rtxn, {3, 4}).ok());
  ASSERT_TRUE(rtxn.Commit().ok());
  EXPECT_EQ(rdb->Metrics().CounterValue("lstore_inserts_total"), 1u);
  // The table registers its merge heartbeat.
  bool merge_listed = false;
  for (int i = 0; i < 500 && !merge_listed; ++i) {
    for (const ActorHealth& actor : rdb->Health().actors) {
      merge_listed = merge_listed || actor.name == "merge:A";
    }
    if (!merge_listed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(merge_listed);
}

// --- reporter --------------------------------------------------------------

TEST_F(DatabaseMetricsTest, ReporterWritesAndSurvivesRotation) {
  DurabilityOptions opts;
  opts.metrics_report_interval_ms = 5;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  ASSERT_TRUE(db->CreateTable("A", Schema({"k", "v"}), SmallConfig()).ok());
  Table* a = db->GetTable("A");
  std::string log_path = dir_ + "/metrics.log";

  for (Value k = 0; k < 32; ++k) {
    Txn txn = db->Begin();
    ASSERT_TRUE(a->Insert(txn, {k, k}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Wait for at least one tick, then rotate the file away mid-run: the
  // reporter must recreate it on the next tick (open-per-tick design).
  for (int i = 0; i < 200 && !fs::exists(log_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(log_path));
  fs::remove(log_path);
  for (int i = 0; i < 200 && !fs::exists(log_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fs::exists(log_path));

  // Close: the reporter writes one final line and stops BEFORE the
  // registry it samples is torn down.
  db.reset();
  std::ifstream in(log_path);
  std::string line, last;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    last = line;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_GE(lines, 1u);
  EXPECT_NE(last.find("\"counters\""), std::string::npos);

  // Reopen over the same directory: the stale metrics.log must not
  // confuse recovery, and a fresh reporter appends to it.
  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(dir_, opts, &db2).ok());
  EXPECT_NE(db2->GetTable("A"), nullptr);
}

// The reporter's metrics.log and the slow-op log share <dir>: both are
// open-append-close line writers, so rotating (deleting) either one
// mid-run must recreate just that file on its next write, leave the
// other untouched, and never mix content between them.
TEST_F(DatabaseMetricsTest, ReporterAndSlowOpLogCoexistAcrossRotation) {
  DurabilityOptions opts;
  opts.metrics_report_interval_ms = 5;
  opts.slow_op_threshold_us = 1;  // every traced request dumps
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  ASSERT_TRUE(db->CreateTable("A", Schema({"k", "v"}), SmallConfig()).ok());
  std::string metrics_path = dir_ + "/metrics.log";
  std::string slow_path = dir_ + "/slowops.log";

  Server server(db.get(), {});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto traced_insert = [&](Value k) {
    client.set_next_trace_id(TraceContext::NewTraceId());
    ASSERT_TRUE(client.Insert("A", {k, k}).ok());
  };
  auto count_lines = [](const std::string& path) {
    std::ifstream in(path);
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  };
  // The slow-op dump lands AFTER the reply (it includes the reply
  // span), so a completed client call does not imply the line is on
  // disk yet — poll for it.
  auto wait_slow_lines = [&](size_t want) {
    for (int i = 0; i < 400 && count_lines(slow_path) < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return count_lines(slow_path);
  };

  traced_insert(1);
  for (int i = 0; i < 200 && !fs::exists(metrics_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(metrics_path));
  if (kTraceEnabled) {
    ASSERT_EQ(wait_slow_lines(1), 1u);
  }

  // Rotate the reporter's file away: slowops.log must survive, and
  // the next traced request must append to it, not to a fresh file.
  fs::remove(metrics_path);
  traced_insert(2);
  if (kTraceEnabled) {
    ASSERT_EQ(wait_slow_lines(2), 2u);
  }
  for (int i = 0; i < 200 && !fs::exists(metrics_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fs::exists(metrics_path));

  if (kTraceEnabled) {
    // Rotate the slow-op log too: recreated by the next slow op.
    fs::remove(slow_path);
    traced_insert(3);
    ASSERT_EQ(wait_slow_lines(1), 1u);
  }

  server.Stop();
  db.reset();

  // Each file holds only its own schema, every line intact.
  if (kTraceEnabled) {
    std::ifstream slow(slow_path);
    std::string line;
    size_t slow_lines = 0;
    while (std::getline(slow, line)) {
      ++slow_lines;
      EXPECT_EQ(line.rfind("{\"ts_ms\":", 0), 0u) << line;
      EXPECT_NE(line.find("\"spans\":["), std::string::npos) << line;
      EXPECT_EQ(line.find("\"counters\""), std::string::npos) << line;
    }
    EXPECT_EQ(slow_lines, 1u);  // insert 3 only — the pre-rotation
                                // lines left with the rotated file
  } else {
    EXPECT_FALSE(fs::exists(slow_path));
  }
  std::ifstream rep(metrics_path);
  std::string line;
  size_t rep_lines = 0;
  while (std::getline(rep, line)) {
    if (line.empty()) continue;
    ++rep_lines;
    EXPECT_NE(line.find("\"counters\""), std::string::npos) << line;
    EXPECT_EQ(line.find("ts_ms"), std::string::npos) << line;
  }
  EXPECT_GE(rep_lines, 1u);
}

}  // namespace
}  // namespace lstore
