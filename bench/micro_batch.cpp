// Batched point operations vs looped single operations: MultiRead,
// InsertBatch, and UpdateBatch amortize primary-index shard latches,
// epoch pins, and redo-log framing (one frame per batch). Also prints
// the parallel Query::Sum scaling curve on a large table — the
// acceptance scenario for the partitioned scan executor.
//
// Sizes scale with --rows (default 100000); the scan curve runs over
// 10x --rows (1M rows at the default) at each --threads worker count
// (default 1,2,4,8).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

using namespace lstore;
using namespace lstore::bench;

namespace {

// Phase timing comes from the shared bench-driver API (bench::Secs on
// the shared BenchClock) rather than a private clock alias.
using Clk = BenchClock;

TableConfig BatchConfig() {
  TableConfig cfg;
  cfg.range_size = 1u << 12;
  cfg.insert_range_size = 1u << 12;
  cfg.merge_threshold = 1u << 11;
  cfg.enable_merge_thread = false;
  return cfg;
}

/// The one table of a fresh durable database at `dir`: its writes log
/// to the database's redo log (sync_commit off, the default).
Table* NewLoggedTable(const std::string& dir, std::unique_ptr<Database>* db) {
  std::filesystem::remove_all(dir);
  Must(Database::Open(dir, db), "open database");
  Must((*db)->CreateTable("m", Schema(5), BatchConfig()), "create table");
  return (*db)->GetTable("m");
}

/// Insert `rows` rows in key order, 4096 to a batch, then merge.
void Load(Table* table, uint64_t rows) {
  Txn txn = table->Begin();
  std::vector<std::vector<Value>> batch;
  for (Value k = 0; k < rows; ++k) {
    batch.push_back({k, k + 1, k + 2, k + 3, k + 4});
    if (batch.size() == 4096) {
      (void)table->InsertBatch(txn, batch);
      batch.clear();
    }
  }
  if (!batch.empty()) (void)table->InsertBatch(txn, batch);
  (void)txn.Commit();
  table->FlushAll();
}

/// A loaded in-memory table.
std::unique_ptr<Table> LoadedTable(uint64_t rows) {
  auto table = std::make_unique<Table>("m", Schema(5), BatchConfig());
  Load(table.get(), rows);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  // Shared flag vocabulary (--rows/--threads/--seed/--batch).
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv, {1, 2, 4, 8});
  PrintHeader("Batched point ops vs looped singles + parallel scan scaling",
              "batching amortizes index probes, epoch pins, and log frames; "
              "partitioned snapshot scans speed up with workers");

  const uint64_t kRows = std::max<uint64_t>(args.rows, 10000);
  const uint64_t kOps = std::min<uint64_t>(kRows, 50000);
  const uint32_t kBatch = std::max<uint32_t>(args.batch, 16u) * 16;
  std::string dir = ScratchDir("micro_batch");

  // --- MultiRead vs looped Read (no logging) -----------------------------
  {
    auto table = LoadedTable(kRows);
    Random rng(args.seed);
    std::vector<Value> keys(kOps);
    for (auto& k : keys) k = rng.Uniform(kRows);

    auto t0 = Clk::now();
    {
      Txn txn = table->Begin();
      std::vector<Value> out;
      for (Value k : keys) (void)table->Read(txn, k, 0b00110, &out);
      (void)txn.Commit();
    }
    auto t1 = Clk::now();
    {
      Txn txn = table->Begin();
      std::vector<std::vector<Value>> rows;
      for (uint64_t i = 0; i < kOps; i += kBatch) {
        std::vector<Value> slice(
            keys.begin() + i,
            keys.begin() + std::min<uint64_t>(i + kBatch, kOps));
        (void)table->MultiRead(txn, slice, 0b00110, &rows);
      }
      (void)txn.Commit();
    }
    auto t2 = Clk::now();
    double looped = Secs(t0, t1), batched = Secs(t1, t2);
    std::printf("%-34s %10.0f ops/s\n", "Read (looped)", kOps / looped);
    std::string label = "MultiRead (batch=" + std::to_string(kBatch) + ")";
    std::printf("%-34s %10.0f ops/s   (%.2fx)\n", label.c_str(),
                kOps / batched, looped / batched);
    EmitMetric("micro_batch", "read_looped", kOps / looped, "ops/s");
    EmitMetric("micro_batch", "multiread_batched", kOps / batched, "ops/s");
  }

  // --- InsertBatch vs looped Insert (logging ON: frame amortization) -----
  {
    double looped, batched;
    {
      std::unique_ptr<Database> db;
      Table* table = NewLoggedTable(dir + "/ins1", &db);
      Txn txn = table->Begin();
      auto t0 = Clk::now();
      for (Value k = 0; k < kOps; ++k) {
        (void)table->Insert(txn, {k, 1, 2, 3, 4});
      }
      looped = Secs(t0, Clk::now());
      (void)txn.Commit();
    }
    {
      std::unique_ptr<Database> db;
      Table* table = NewLoggedTable(dir + "/ins2", &db);
      Txn txn = table->Begin();
      auto t0 = Clk::now();
      std::vector<std::vector<Value>> rows;
      for (Value k = 0; k < kOps; ++k) {
        rows.push_back({k, 1, 2, 3, 4});
        if (rows.size() == kBatch) {
          (void)table->InsertBatch(txn, rows);
          rows.clear();
        }
      }
      if (!rows.empty()) (void)table->InsertBatch(txn, rows);
      batched = Secs(t0, Clk::now());
      (void)txn.Commit();
    }
    std::printf("%-34s %10.0f ops/s\n", "Insert (looped, logged)",
                kOps / looped);
    std::printf("%-34s %10.0f ops/s   (%.2fx)\n", "InsertBatch (logged)",
                kOps / batched, looped / batched);
    EmitMetric("micro_batch", "insert_looped", kOps / looped, "ops/s");
    EmitMetric("micro_batch", "insertbatch", kOps / batched, "ops/s");
  }

  // --- UpdateBatch vs looped Update (logging ON) -------------------------
  {
    std::unique_ptr<Database> db;
    Table* table = NewLoggedTable(dir + "/upd", &db);
    Load(table, kRows);
    // A stride walk gives distinct keys spread across ranges.
    std::vector<Value> keys(kOps);
    for (uint64_t i = 0; i < kOps; ++i) keys[i] = (i * 7919) % kRows;
    std::vector<Value> row(5, 99);

    Txn txn = table->Begin();
    auto t0 = Clk::now();
    for (uint64_t i = 0; i < kOps / 2; ++i) {
      (void)table->Update(txn, keys[i], 0b00010, row);
    }
    auto t1 = Clk::now();
    std::vector<std::vector<Value>> rows(kBatch, row);
    for (uint64_t i = kOps / 2; i + kBatch <= kOps; i += kBatch) {
      std::vector<Value> slice(keys.begin() + i, keys.begin() + i + kBatch);
      (void)table->UpdateBatch(txn, slice, 0b00010, rows);
    }
    auto t2 = Clk::now();
    (void)txn.Commit();
    double looped = Secs(t0, t1) / (kOps / 2);
    double batched = Secs(t1, t2) / (kOps / 2 - kBatch);
    std::printf("%-34s %10.0f ops/s\n", "Update (looped, logged)",
                1.0 / looped);
    std::printf("%-34s %10.0f ops/s   (%.2fx)\n", "UpdateBatch (logged)",
                1.0 / batched, looped / batched);
    EmitMetric("micro_batch", "update_looped", 1.0 / looped, "ops/s");
    EmitMetric("micro_batch", "updatebatch", 1.0 / batched, "ops/s");
  }

  // --- Parallel Query::Sum scaling on a large table ----------------------
  // The acceptance scenario: >= 1M rows, identical sums at every
  // worker count, >= 3x at 8 workers on sufficiently parallel hardware.
  {
    const uint64_t scan_rows = kRows * 10;
    auto table = LoadedTable(scan_rows);
    std::printf("\nParallel Query::Sum over %llu rows\n",
                static_cast<unsigned long long>(scan_rows));
    std::printf("%-12s %12s %14s %10s\n", "workers", "time (s)", "rows/s",
                "speedup");
    uint64_t expect = 0;
    double base = 0;
    for (uint32_t workers : args.threads) {
      uint64_t sum = 0;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clk::now();
        (void)table->NewQuery().Workers(workers).Sum(1, &sum);
        best = std::min(best, Secs(t0, Clk::now()));
      }
      if (base == 0) {
        base = best;
        expect = sum;
      } else if (sum != expect) {
        std::printf("SUM MISMATCH at %u workers: %llu != %llu\n", workers,
                    static_cast<unsigned long long>(sum),
                    static_cast<unsigned long long>(expect));
        return 1;
      }
      std::printf("%-12u %12.4f %14.0f %9.2fx\n", workers, best,
                  scan_rows / best, base / best);
      EmitMetric("micro_batch", "query_sum_w" + std::to_string(workers),
                 scan_rows / best, "rows/s");
      std::fflush(stdout);
    }

    // Engine-side view of the same run: partition latencies and merge
    // work from the table's own registry, dumped into the bench JSON.
    MetricsSnapshot snap = table->metrics()->Snapshot();
    EmitSnapshot("micro_batch", "engine", snap);
    if (const auto* h = snap.FindHistogram("lstore_query_partition_ns");
        h != nullptr && h->hist.count > 0) {
      std::printf("\nscan partitions: %llu, p50=%lluns p99=%lluns\n",
                  static_cast<unsigned long long>(h->hist.count),
                  static_cast<unsigned long long>(h->hist.Percentile(0.5)),
                  static_cast<unsigned long long>(h->hist.Percentile(0.99)));
    }
  }

  std::filesystem::remove_all(dir);
  return 0;
}
