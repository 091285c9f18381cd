// Historic data management: every update is retained (Section 2.1
// "querying and retaining the current and historic data"), merged tail
// pages are delta-compressed into the historic store (Section 4.3),
// and time-travel queries reconstruct any past snapshot — including
// across merges and compression, and after a restart from a checkpoint
// plus the redo-log tail (Section 5.1.3).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

using namespace lstore;

int main() {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/lstore_time_travel";
  std::filesystem::remove_all(dir);

  TableConfig config;
  config.range_size = 256;
  config.merge_threshold = 64;
  config.enable_merge_thread = false;

  std::vector<Timestamp> checkpoints;
  {
    // A table is durable as the table of a database directory: its
    // writes go to the directory's one redo log.
    std::unique_ptr<Database> db;
    Status s = Database::Open(dir, &db);
    if (s.ok()) {
      s = db->CreateTable("inventory",
                          Schema({"sku", "stock", "price_cents"}), config);
    }
    if (!s.ok()) {
      std::printf("open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    Table& inventory = *db->GetTable("inventory");
    // Seed and evolve the data through four "days".
    Txn txn = inventory.Begin();
    for (Value sku = 0; sku < 200; ++sku) {
      inventory.Insert(txn, {sku, 100, 999});
    }
    txn.Commit();

    for (int day = 0; day < 4; ++day) {
      checkpoints.push_back(inventory.Now());
      Txn t = inventory.Begin();
      for (Value sku = 0; sku < 200; sku += 4) {
        // Sell stock and reprice.
        inventory.Update(t, sku, 0b110,
                         {0, Value(100 - (day + 1) * 10),
                          Value(999 + (day + 1) * 50)});
      }
      t.Commit();
      // Consolidate + compress history as days pass.
      inventory.FlushAll();
      inventory.CompressHistoricNow(0);
      inventory.epochs().TryReclaim();
      // After day 2, a checkpoint: the restart loads it and replays
      // only the later days from the log.
      if (day == 1 && !db->Checkpoint().ok()) return 1;
    }
    checkpoints.push_back(inventory.Now());

    std::printf("SKU 0 stock by day (merged + historic-compressed):\n");
    for (size_t day = 0; day < checkpoints.size(); ++day) {
      std::vector<Value> row;
      if (inventory.ReadAsOf(0, checkpoints[day], 0b110, &row).ok()) {
        std::printf("  day %zu: stock=%llu price=%llu\n", day,
                    static_cast<unsigned long long>(row[1]),
                    static_cast<unsigned long long>(row[2]));
      }
    }

    // Aggregates time travel too: total stock at each day's snapshot
    // (Query::AsOf reconstructs history across merges + compression).
    std::printf("total stock by day:\n");
    for (size_t day = 0; day < checkpoints.size(); ++day) {
      uint64_t total = 0;
      inventory.NewQuery().AsOf(checkpoints[day]).Sum(1, &total);
      std::printf("  day %zu: %llu units\n", day,
                  static_cast<unsigned long long>(total));
    }
    std::printf("historic compressions: %llu\n",
                static_cast<unsigned long long>(
                    inventory.metrics()
                        ->GetCounter("lstore_historic_compressions_total")
                        ->value()));
    // The database closes here = clean shutdown. Now simulate restart.
  }

  std::printf("\nrestarting from the checkpoint and the redo-log tail (%s)...\n",
              dir.c_str());
  std::unique_ptr<Database> db;
  Status s = Database::Open(dir, &db);
  if (!s.ok()) {
    std::printf("recovery failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Table& recovered = *db->GetTable("inventory");
  std::printf("recovered %llu rows; history still queryable:\n",
              static_cast<unsigned long long>(recovered.num_rows()));
  for (size_t day = 0; day < checkpoints.size(); ++day) {
    std::vector<Value> row;
    if (recovered.ReadAsOf(0, checkpoints[day], 0b110, &row).ok()) {
      std::printf("  day %zu: stock=%llu price=%llu\n", day,
                  static_cast<unsigned long long>(row[1]),
                  static_cast<unsigned long long>(row[2]));
    }
  }
  db.reset();
  std::filesystem::remove_all(dir);
  std::printf("time-travel example done.\n");
  return 0;
}
