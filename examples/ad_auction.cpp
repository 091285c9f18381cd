// Real-time targeted advertising (the paper's first motivating
// scenario, Section 1): high-velocity transactional bid/impression
// traffic with concurrent analytics over the *latest* data — the
// analytics drive ad selection, and resulting purchases must be
// visible to subsequent analytics immediately.
//
// Schema: shopper(id, region, segment, impressions, clicks, purchases,
//                 spend_cents)
// OLTP: impression / click / purchase transactions (multi-statement).
// OLAP: per-region conversion analytics running concurrently,
//       plus a secondary-index lookup of a shopper segment.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "core/table.h"

using namespace lstore;

namespace {

constexpr Value kShoppers = 20000;
constexpr ColumnId kRegion = 1, kSegment = 2, kImpressions = 3, kClicks = 4,
                   kPurchases = 5, kSpend = 6;

}  // namespace

int main() {
  TableConfig config;
  config.range_size = 1u << 12;
  config.merge_threshold = 1u << 11;
  config.enable_merge_thread = true;  // real-time storage adaption
  Table shoppers("shoppers",
                 Schema({"id", "region", "segment", "impressions", "clicks",
                         "purchases", "spend_cents"}),
                 config);

  // Load the shopper population.
  {
    Random rng(42);
    Txn txn = shoppers.Begin();
    std::vector<std::vector<Value>> rows;
    rows.reserve(kShoppers);
    for (Value id = 0; id < kShoppers; ++id) {
      rows.push_back({id, rng.Uniform(8), rng.Uniform(16), 0, 0, 0, 0});
    }
    shoppers.InsertBatch(txn, rows);  // one redo frame, one index pass
    txn.Commit();
  }
  shoppers.FlushAll();
  shoppers.CreateSecondaryIndex(kSegment);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> events{0}, conversions{0};

  // OLTP side: the ad-serving event stream. A "conversion" is a
  // multi-statement transaction: read shopper state, record the click
  // and the purchase atomically.
  std::thread oltp([&] {
    Random rng(7);
    while (!stop.load()) {
      Value id = rng.Uniform(kShoppers);
      Txn txn = shoppers.Begin();
      std::vector<Value> s;
      if (!shoppers.Read(txn, id, 0b1111000, &s).ok()) {
        txn.Abort();
        continue;
      }
      bool clicked = rng.Percent(10);
      bool bought = clicked && rng.Percent(20);
      std::vector<Value> row(7, 0);
      ColumnMask mask = 1ull << kImpressions;
      row[kImpressions] = s[kImpressions] + 1;
      if (clicked) {
        mask |= 1ull << kClicks;
        row[kClicks] = s[kClicks] + 1;
      }
      if (bought) {
        mask |= (1ull << kPurchases) | (1ull << kSpend);
        row[kPurchases] = s[kPurchases] + 1;
        row[kSpend] = s[kSpend] + 99 + rng.Uniform(9900);
      }
      if (shoppers.Update(txn, id, mask, row).ok() &&
          txn.Commit().ok()) {
        events.fetch_add(1);
        if (bought) conversions.fetch_add(1);
      }
      // A failed session auto-aborts when `txn` leaves scope.
    }
  });

  // OLAP side: the auction's real-time analytics — spend per region on
  // a consistent snapshot, concurrent with the event stream.
  std::printf("%-10s %14s %14s %16s\n", "tick", "events", "conversions",
              "total spend ($)");
  for (int tick = 1; tick <= 5; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    uint64_t spend = 0;
    // A consistent snapshot (Now() never ticks the clock), scanned in
    // parallel along update-range partitions on the shared pool.
    shoppers.NewQuery().Workers(0).Sum(kSpend, &spend);
    std::printf("%-10d %14llu %14llu %16.2f\n", tick,
                static_cast<unsigned long long>(events.load()),
                static_cast<unsigned long long>(conversions.load()),
                spend / 100.0);
  }
  stop = true;
  oltp.join();

  // Targeting query: shoppers in segment 3 (index candidates are
  // re-validated against the snapshot, Section 3.1).
  std::vector<Value> segment3;
  shoppers.NewQuery().Where(kSegment, Value{3}).Keys(&segment3);
  std::printf("segment 3 audience: %zu shoppers\n", segment3.size());

  // Merge statistics: the background merge kept tail pages bounded
  // without ever blocking the OLTP stream.
  shoppers.WaitForMergeQueue();
  MetricsSnapshot m = shoppers.metrics()->Snapshot();
  std::printf(
      "merges: %llu update + %llu insert; tail records merged: %llu\n",
      static_cast<unsigned long long>(
          m.CounterValue("lstore_update_merges_total")),
      static_cast<unsigned long long>(
          m.CounterValue("lstore_insert_merges_total")),
      static_cast<unsigned long long>(
          m.CounterValue("lstore_merge_rows_consolidated_total")));
  return 0;
}
