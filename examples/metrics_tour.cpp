// Metrics tour: the observability subsystem end to end — a durable
// database doing real work (cross-table commits, merges, a checkpoint,
// parallel scans) with the background stats reporter enabled, then the
// full Prometheus exposition dumped to stdout.
//
// Build & run:  ./build/examples/metrics_tour
// CI pipes the output through tools/check_prometheus.py.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

using namespace lstore;

int main() {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/lstore_metrics_tour";
  std::filesystem::remove_all(dir);

  DurabilityOptions opts;
  opts.sync_commit = true;
  opts.archive_enabled = true;
  opts.metrics_report_interval_ms = 50;  // <dir>/metrics.log timeline

  std::unique_ptr<Database> db;
  Status s = Database::Open(dir, opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  TableConfig cfg;
  cfg.range_size = 256;
  cfg.insert_range_size = 256;
  cfg.merge_threshold = 128;
  cfg.enable_merge_thread = false;
  (void)db->CreateTable("orders", Schema({"id", "total", "state"}), cfg);
  (void)db->CreateTable("audit", Schema({"id", "order_id"}), cfg);
  Table* orders = db->GetTable("orders");
  Table* audit = db->GetTable("audit");

  // Concurrent cross-table commits: every order insert pairs with an
  // audit row in ONE transaction, so the logs' group commit shares
  // fsyncs across real multi-writer work.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (Value i = 0; i < 200; ++i) {
        Value id = t * 200 + i;
        Txn txn = db->Begin();
        (void)orders->Insert(txn, {id, id % 97, 0});
        (void)audit->Insert(txn, {id, id});
        (void)txn.Commit();
      }
    });
  }
  for (auto& w : workers) w.join();

  // Updates build lineage; FlushAll consolidates it (merge metrics).
  {
    Txn txn = db->Begin();
    for (Value id = 0; id < 800; ++id) {
      (void)orders->Update(txn, id, 0b100, {0, 0, 1});
    }
    (void)txn.Commit();
  }
  orders->FlushAll();

  // A checkpoint rolls the log and moves its closed segment into the
  // archive.
  (void)db->Checkpoint();

  // Parallel snapshot scan (per-partition latencies).
  uint64_t total = 0;
  (void)orders->NewQuery().Workers(4).Sum(1, &total);
  std::fprintf(stderr, "sum(orders.total) = %llu\n",
               static_cast<unsigned long long>(total));

  // The whole engine state, one snapshot, Prometheus text on stdout.
  std::printf("%s", db->Metrics().RenderPrometheus().c_str());

  db.reset();  // reporter writes its final metrics.log line here
  std::fprintf(stderr, "metrics timeline at %s/metrics.log\n", dir.c_str());
  return 0;
}
