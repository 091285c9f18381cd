// The paper's evaluation (Section 6) from one binary: L-Store against
// In-place Update + History (IUH) and Delta + Blocking Merge (DBM)
// across contention levels, read/write mixes and scan/update splits,
// the row-vs-column layout tables, and three design ablations.
//
//   paper --profile fig7|fig8|fig9|fig10|table7|table8|table9|
//                   range-size|skew|cumulation|all
//         [--rows N] [--duration-ms N] [--warmup-ms N]
//         [--threads 1,2,4,8] [--seed N]
//
// The micro benchmark of [18, 33]: --rows records of 10 data columns
// plus the key. Contention is the active set transactions touch: all
// rows (low), rows/100 (medium) or rows/1000 (high). --threads is the
// updater sweep; a profile with one fixed thread count (the paper's
// 16 updaters, say) takes its largest point. Every other knob is a
// constant or a sweep axis of its profile.
//
// Every point runs the workload driver's closed loop (RunPoint). A
// worker's role comes from its index: updaters run the short update
// transaction (`update`), then scanners a full-table snapshot SUM
// (`scan`), then point readers 10 reads under a column mask (`read`).
// Keys come from KeyGenerator(active set, theta); theta 0 is uniform.
// The engines' background merges run throughout (Section 6.1). A load
// whose SUM misses the closed form of its cells, or an op failing
// other than by abort, exits 1. Every table row ends with its points'
// write-write aborts, in cell order. With LSTORE_BENCH_JSON set, every
// table cell and every point's aborts (`<point>.aborts`) is also one
// JSON row (bench "paper").

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/dbm/dbm_table.h"
#include "baselines/iuh/iuh_table.h"
#include "common/bitutil.h"
#include "core/row_table.h"
#include "workload_driver.h"

namespace lstore {
namespace bench {
namespace {

constexpr uint32_t kDataColumns = 10;
constexpr uint32_t kReadsPerPointTxn = 10;

Value CellValue(uint64_t key, ColumnId c) { return key * 7 + c; }

/// The short update transaction's shape.
struct TxnShape {
  uint32_t reads = 8;       ///< point reads of 2 columns each
  uint32_t writes = 2;      ///< updates of `write_cols` columns each
  uint32_t write_cols = 4;  ///< ~40% of the data columns
};

/// What one sweep point's workers do.
struct Workload {
  uint64_t active_set = 1;
  double theta = 0;  ///< 0 = uniform
  TxnShape shape = {};
  ColumnMask read_mask = 0;  ///< point readers' projection
};

/// Worker counts by role: updaters, then scanners, then point readers.
struct Roles { uint32_t updaters, scanners, readers; };

/// `count` distinct data columns (never the key).
ColumnMask PickColumns(Random& rng, uint32_t count) {
  ColumnMask mask = 0;
  for (uint32_t chosen = 0; chosen < count;) {
    ColumnMask bit = 1ull << (1 + rng.Uniform(kDataColumns));
    if ((mask & bit) == 0) {
      mask |= bit;
      ++chosen;
    }
  }
  return mask;
}

/// Section 6.1: for fairness every engine gets columnar storage, a
/// single primary index, the embedded indirection, and no logging.
TableConfig PaperConfig(uint32_t range_size = 1u << 12,
                        uint32_t merge_threshold = 1u << 11) {
  TableConfig tc;
  tc.range_size = range_size;
  tc.insert_range_size = range_size;
  tc.merge_threshold = merge_threshold;
  tc.enable_merge_thread = true;
  return tc;
}

/// The adapter the profiles drive: load, update txn, point-read txn
/// and snapshot sum over any of the four engines.
template <typename TableT>
class Engine {
 public:
  Engine(const TableConfig& tc, uint64_t rows) {
    if constexpr (std::is_same_v<TableT, Table>) {
      table_ = std::make_unique<Table>("paper", Schema(kDataColumns + 1), tc);
    } else {
      table_ = std::make_unique<TableT>(Schema(kDataColumns + 1), tc);
    }
    Load(rows);
  }

  TableT& table() { return *table_; }

  Status UpdateTxn(KeyGenerator& keys, Random& rng, const TxnShape& shape) {
    Txn txn = table_->Begin(IsolationLevel::kReadCommitted);
    std::vector<Value> out;
    std::vector<Value> row(kDataColumns + 1, 0);
    for (uint32_t i = 0; i < shape.reads; ++i) {
      Status s = table_->Read(txn, keys.Next(), PickColumns(rng, 2), &out);
      if (s.IsAborted()) return s;
    }
    for (uint32_t i = 0; i < shape.writes; ++i) {
      ColumnMask mask = PickColumns(rng, shape.write_cols);
      for (BitIter it(mask); it; ++it) row[*it] = rng.Next() % 1000000;
      Status s = table_->Update(txn, keys.Next(), mask, row);
      if (!s.ok()) return s;
    }
    return txn.Commit();
  }

  Status ReadTxn(KeyGenerator& keys, ColumnMask mask) {
    Txn txn = table_->Begin(IsolationLevel::kReadCommitted);
    std::vector<Value> out;
    for (uint32_t i = 0; i < kReadsPerPointTxn; ++i) {
      Status s = table_->Read(txn, keys.Next(), mask, &out);
      if (s.IsAborted()) return s;
    }
    return txn.Commit();
  }

  /// Snapshot SUM of column 1 over the whole table.
  Status ScanSum(uint64_t* sum) {
    if constexpr (std::is_same_v<TableT, Table>) {
      return table_->NewQuery().AsOf(table_->Now()).Workers(1).Sum(1, sum);
    } else {
      return table_->SumColumn(1, table_->Now(), sum);
    }
  }

 private:
  void Load(uint64_t rows) {
    std::vector<Value> row(kDataColumns + 1);
    for (uint64_t k = 0; k < rows;) {
      Txn txn = table_->Begin(IsolationLevel::kReadCommitted);
      for (uint64_t end = std::min(rows, k + 10000); k < end; ++k) {
        row[0] = k;
        for (ColumnId c = 1; c <= kDataColumns; ++c) {
          row[c] = CellValue(k, c);
        }
        Must(table_->Insert(txn, row), "load insert");
      }
      Must(txn.Commit(), "load commit");
    }
    if constexpr (std::is_same_v<TableT, Table>) {
      table_->FlushAll();
      table_->WaitForMergeQueue();
    }
    uint64_t sum = 0;
    Must(ScanSum(&sum), "load check scan");
    const uint64_t expect = 7 * (rows * (rows - 1) / 2) + rows;  // c1 cells
    Must(sum == expect ? Status::OK() : Status::Corruption("SUM(c1) wrong"),
         "load check");
  }

  std::unique_ptr<TableT> table_;
};

enum class Kind { kLStore, kLStoreRow, kIuh, kDbm };

struct EngineNames {
  const char* name;
  const char* key;  ///< JSON metric key
};
constexpr EngineNames kNames[] = {{"L-Store", "lstore"},
                                  {"L-Store (Row)", "lstore_row"},
                                  {"In-place Update + History", "iuh"},
                                  {"Delta + Blocking Merge", "dbm"}};
const char* EngineName(Kind k) { return kNames[static_cast<int>(k)].name; }
const char* EngineKey(Kind k) { return kNames[static_cast<int>(k)].key; }

constexpr Kind kPaperEngines[] = {Kind::kLStore, Kind::kIuh, Kind::kDbm};
constexpr Kind kLayouts[] = {Kind::kLStore, Kind::kLStoreRow};

template <typename TableT, typename Fn>
void WithEngine(const TableConfig& tc, uint64_t rows, Fn& fn) {
  Engine<TableT> e(tc, rows);
  fn(e);
}

/// Build and load engine `k`, then hand it to `fn` (a generic lambda).
template <typename Fn>
void WithEngine(Kind k, const TableConfig& tc, uint64_t rows, Fn&& fn) {
  switch (k) {
    case Kind::kLStore: return WithEngine<Table>(tc, rows, fn);
    case Kind::kLStoreRow: return WithEngine<RowTable>(tc, rows, fn);
    case Kind::kIuh: return WithEngine<IuhTable>(tc, rows, fn);
    case Kind::kDbm: return WithEngine<DbmTable>(tc, rows, fn);
  }
}

/// One sweep point: `roles` workers in the driver's closed loop.
template <typename E>
WorkloadResult Run(const BenchArgs& args, E& engine, const Workload& wl,
                   const Roles& roles) {
  const uint32_t n = roles.updaters + roles.scanners + roles.readers;
  WorkloadResult r = RunPoint(args, n, [&](uint32_t w,
                                           const std::atomic<int>* phase,
                                           WorkerStats* out) {
    const uint32_t cls = w < roles.updaters                    ? kOpUpdate
                         : w < roles.updaters + roles.scanners ? kOpScan
                                                               : kOpRead;
    KeyGenerator keys(wl.active_set, wl.theta, args.seed + w * 7919ull);
    Random rng(args.seed * 1000003ull + w);
    uint64_t sum = 0;
    for (int ph; (ph = phase->load(std::memory_order_acquire)) != kStop;) {
      uint64_t t0 = NowNanos();
      Status s = cls == kOpUpdate ? engine.UpdateTxn(keys, rng, wl.shape)
                 : cls == kOpScan ? engine.ScanSum(&sum)
                                  : engine.ReadTxn(keys, wl.read_mask);
      out->Account(cls, s, t0, ph == kMeasure);
    }
  });
  // Aborts and misses are outcomes; any other failed op is a fault.
  Must(r.stats.errors == 0 ? Status::OK() : Status::Corruption("op failed"),
       "paper run");
  return r;
}

/// Thousands of committed `cls` transactions per second.
double Ktps(const WorkloadResult& r, uint32_t cls) {
  return r.measure_secs > 0 ? r.stats.ops[cls] / r.measure_secs / 1000 : 0;
}

/// Median scan time in milliseconds (0 when no scan started in the
/// measured window).
double ScanMs(const WorkloadResult& r) {
  return r.stats.lat[kOpScan].PercentileNs(0.5) / 1e6;
}

/// Print `value` as one table cell and emit it as a JSON row.
void Report(const char* fmt, const std::string& metric, double value,
            const char* unit) {
  std::printf(fmt, value);
  std::fflush(stdout);
  EmitMetric("paper", metric, value, unit);
}

/// The aborts of the points on the table row being printed.
std::string row_aborts;

/// Emit point `point`'s write-write aborts as a JSON row and keep them
/// for the row's trailing aborts list.
void ReportAborts(const std::string& point, const WorkloadResult& r) {
  EmitMetric("paper", point + ".aborts", r.stats.aborts, "txns");
  row_aborts += " " + std::to_string(r.stats.aborts);
}

/// End a table row with its points' aborts, in cell order.
void EndRow() {
  std::printf("   aborts:%s\n", row_aborts.c_str());
  row_aborts.clear();
}

uint32_t MaxThreads(const BenchArgs& args) {
  return *std::max_element(args.threads.begin(), args.threads.end());
}

struct Level {
  const char* name;
  uint64_t divisor;  ///< active set = rows / divisor
};
constexpr Level kLevels[] = {{"low", 1}, {"medium", 100}, {"high", 1000}};

uint64_t ActiveSet(const BenchArgs& args, const Level& level) {
  return std::max<uint64_t>(1, args.rows / level.divisor);
}

// --- profiles --------------------------------------------------------------

void Fig7(const BenchArgs& args) {
  PrintHeader(
      "Figure 7: scalability under varying contention",
      "low: L-Store ~ IUH scale, DBM flat; medium: L-Store up to 5.09x IUH, "
      "8.54x DBM; high: up to 40.56x IUH, 14.51x DBM");
  for (const Level& level : kLevels) {
    Workload wl{ActiveSet(args, level)};
    std::printf("\n--- Fig 7: %s contention (active set %" PRIu64
                " of %" PRIu64 " rows), 1 scan thread ---\n",
                level.name, wl.active_set, args.rows);
    std::printf("%-28s", "engine \\ update threads");
    for (uint32_t t : args.threads) std::printf(" %10u", t);
    std::printf("   (K txns/s)\n");
    for (Kind k : kPaperEngines) {
      WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
        std::printf("%-28s", EngineName(k));
        for (uint32_t t : args.threads) {
          WorkloadResult r = Run(args, e, wl, {t, 1, 0});
          const std::string point = std::string("fig7.") + level.name + "." +
                                    EngineKey(k) + ".t" + std::to_string(t);
          Report(" %10.1f", point + ".update_ktps", Ktps(r, kOpUpdate),
                 "Ktxn/s");
          ReportAborts(point, r);
        }
        EndRow();
      });
    }
  }
}

void Fig8(const BenchArgs& args) {
  PrintHeader("Figure 8: scan performance vs merge batch size M",
              "scan time decreases with M, optimum near 50% of range size; "
              "merge keeps up with concurrent updaters");
  const uint32_t kRange = 1u << 12;
  const uint32_t merge_batches[] = {kRange / 16, kRange / 8, kRange / 4,
                                    kRange / 2, kRange};
  // The paper's 4 and 16 updaters, capped by the sweep.
  std::vector<uint32_t> writers{std::min(4u, MaxThreads(args))};
  if (MaxThreads(args) > 4) writers.push_back(std::min(16u, MaxThreads(args)));
  Workload wl{args.rows};
  std::printf("\n%-24s", "update threads \\ M");
  for (uint32_t m : merge_batches) std::printf(" %9u", m);
  std::printf("   (scan ms, L-Store, range %u)\n", kRange);
  for (uint32_t w : writers) {
    std::printf("%-24u", w);
    for (uint32_t m : merge_batches) {
      WithEngine(Kind::kLStore, PaperConfig(kRange, m), args.rows,
                 [&](auto& e) {
                   WorkloadResult r = Run(args, e, wl, {w, 1, 0});
                   const std::string point = "fig8.t" + std::to_string(w) +
                                             ".m" + std::to_string(m);
                   Report(" %9.3f", point + ".scan_ms", ScanMs(r), "ms");
                   ReportAborts(point, r);
                 });
    }
    EndRow();
  }
}

void Fig9(const BenchArgs& args) {
  PrintHeader("Figure 9: impact of the read/write ratio",
              "throughput rises with read share; L-Store leads by up to "
              "1.45x/5.78x (low) and 4.19x/6.34x (medium) over IUH/DBM; "
              "gap narrows at 100% reads");
  const uint32_t read_pcts[] = {0, 20, 40, 60, 80, 100};
  const uint32_t threads = MaxThreads(args);
  for (const Level& level : {kLevels[0], kLevels[1]}) {
    std::printf("\n--- Fig 9: %s contention, %u update threads ---\n",
                level.name, threads);
    std::printf("%-28s", "engine \\ read %");
    for (uint32_t p : read_pcts) std::printf(" %9u", p);
    std::printf("   (K txns/s)\n");
    for (Kind k : kPaperEngines) {
      WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
        std::printf("%-28s", EngineName(k));
        for (uint32_t pct : read_pcts) {
          // 10 statements per transaction, `pct` percent of them reads.
          Workload wl{ActiveSet(args, level)};
          wl.shape.reads = pct / 10;
          wl.shape.writes = 10 - wl.shape.reads;
          WorkloadResult r = Run(args, e, wl, {threads, 1, 0});
          const std::string point = std::string("fig9.") + level.name + "." +
                                    EngineKey(k) + ".r" + std::to_string(pct);
          Report(" %9.1f", point + ".update_ktps", Ktps(r, kOpUpdate),
                 "Ktxn/s");
          ReportAborts(point, r);
        }
        EndRow();
      });
    }
  }
}

void Fig10(const BenchArgs& args) {
  PrintHeader("Figure 10: short updates vs long read-only transactions",
              "L-Store beats IUH/DBM by up to 5.37x/7.91x on updates and DBM "
              "by up to 1.97x/2.37x on long reads");
  // Concurrent transactions (the paper's 17), capped by the sweep.
  const uint32_t total = std::clamp(MaxThreads(args), 2u, 17u);
  std::vector<uint32_t> scan_counts;
  for (uint32_t s : {1u, total / 4, total / 2, 3 * total / 4, total - 1}) {
    if (s >= 1 && s < total &&
        (scan_counts.empty() || s > scan_counts.back())) {
      scan_counts.push_back(s);
    }
  }
  for (const Level& level : {kLevels[0], kLevels[1]}) {
    Workload wl{ActiveSet(args, level)};
    std::printf("\n--- Fig 10: %s contention, %u concurrent txns ---\n",
                level.name, total);
    std::printf("%-28s %12s %14s %14s\n", "engine", "scanners",
                "upd K txns/s", "scans/s");
    for (Kind k : kPaperEngines) {
      WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
        for (uint32_t scans : scan_counts) {
          WorkloadResult r = Run(args, e, wl, {total - scans, scans, 0});
          std::string key = std::string("fig10.") + level.name + "." +
                            EngineKey(k) + ".s" + std::to_string(scans);
          std::printf("%-28s %12u", EngineName(k), scans);
          Report(" %14.1f", key + ".update_ktps", Ktps(r, kOpUpdate),
                 "Ktxn/s");
          Report(" %14.1f", key + ".scans_s", Ktps(r, kOpScan) * 1000,
                 "1/s");
          ReportAborts(key, r);
          EndRow();
        }
      });
    }
  }
}

void Table7(const BenchArgs& args) {
  PrintHeader("Table 7: scan performance across engines",
              "L-Store < IUH < DBM (0.24 / 0.28 / 0.38 s on the paper's "
              "hardware; shape, not absolute values, is the target)");
  const uint32_t writers = MaxThreads(args);  // the paper's 16
  Workload wl{args.rows};
  std::printf("\n%-32s %16s   (%u update threads)\n", "engine",
              "scan time (ms)", writers);
  for (Kind k : kPaperEngines) {
    WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
      WorkloadResult r = Run(args, e, wl, {writers, 1, 0});
      const std::string point = std::string("table7.") + EngineKey(k);
      std::printf("%-32s", EngineName(k));
      Report(" %16.3f", point + ".scan_ms", ScanMs(r), "ms");
      ReportAborts(point, r);
      EndRow();
    });
  }
}

void Table8(const BenchArgs& args) {
  PrintHeader("Table 8: scan performance, row vs columnar layout",
              "L-Store (Column) beats L-Store (Row) ~4.56x without updates "
              "and ~2.75x with 16 update threads");
  const uint32_t writers = MaxThreads(args);
  Workload wl{args.rows};
  std::printf("\n%-24s %22s %22s   (%u update threads)\n", "layout",
              "scan, no updates (ms)", "scan, with updates (ms)", writers);
  for (Kind k : kLayouts) {
    WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
      std::string key = std::string("table8.") + EngineKey(k);
      std::printf("%-24s", EngineName(k));
      WorkloadResult idle = Run(args, e, wl, {0, 1, 0});
      Report(" %22.3f", key + ".idle_scan_ms", ScanMs(idle), "ms");
      WorkloadResult busy = Run(args, e, wl, {writers, 1, 0});
      Report(" %22.3f", key + ".busy_scan_ms", ScanMs(busy), "ms");
      ReportAborts(key + ".idle", idle);
      ReportAborts(key + ".busy", busy);
      EndRow();
    });
  }
}

void Table9(const BenchArgs& args) {
  PrintHeader("Table 9: point queries vs % of columns read",
              "columnar ~ row at 10-20% of columns; columnar drops ~33% in "
              "the all-columns worst case; row flat");
  const uint32_t readers = std::min(4u, MaxThreads(args));
  const uint32_t col_counts[] = {1, 2, 4, 8, 10};  // of 10 data columns
  std::printf("\n%-20s", "layout \\ %cols");
  for (uint32_t c : col_counts) std::printf(" %9u%%", c * 10);
  std::printf("   (K txns/s, %u threads, %u reads/txn)\n", readers,
              kReadsPerPointTxn);
  for (Kind k : kLayouts) {
    WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
      std::printf("%-20s", EngineName(k));
      for (uint32_t ncols : col_counts) {
        Workload wl{args.rows};
        wl.read_mask = ((1ull << ncols) - 1) << 1;  // columns 1..ncols
        WorkloadResult r = Run(args, e, wl, {0, 0, readers});
        const std::string point = std::string("table9.") + EngineKey(k) +
                                  ".c" + std::to_string(ncols);
        Report(" %10.1f", point + ".read_ktps", Ktps(r, kOpRead), "Ktxn/s");
        ReportAborts(point, r);
      }
      EndRow();
    });
  }
}

void RangeSize(const BenchArgs& args) {
  PrintHeader("Ablation: update range size (Section 4.4)",
              "ranges of 2^12..2^16 balance locality vs fragmentation; "
              "extremes lose on scan locality or space");
  const uint32_t writers = std::min(4u, MaxThreads(args));
  Workload wl{args.rows};
  std::printf("\n%-14s %16s %16s   (L-Store, %u update threads, "
              "M = range/2)\n",
              "range size", "upd K txns/s", "scan ms", writers);
  for (uint32_t rs : {1u << 8, 1u << 10, 1u << 12, 1u << 14}) {
    WithEngine(Kind::kLStore, PaperConfig(rs, rs / 2), args.rows,
               [&](auto& e) {
                 WorkloadResult r = Run(args, e, wl, {writers, 1, 0});
                 std::string key = "range_size.r" + std::to_string(rs);
                 std::printf("%-14u", rs);
                 Report(" %16.1f", key + ".update_ktps", Ktps(r, kOpUpdate),
                        "Ktxn/s");
                 Report(" %16.3f", key + ".scan_ms", ScanMs(r), "ms");
                 ReportAborts(key, r);
                 EndRow();
               });
  }
}

void Skew(const BenchArgs& args) {
  PrintHeader("Ablation: Zipfian write skew",
              "L-Store's lead over IUH/DBM persists or grows with skew "
              "(append-only updates vs page latches / drains)");
  const uint32_t writers = std::min(4u, MaxThreads(args));
  const double thetas[] = {0.5, 0.9, 0.99};
  std::printf("\n%-28s", "engine \\ zipf theta");
  for (double th : thetas) std::printf(" %9.2f", th);
  std::printf("   (K txns/s, %u update threads, all rows, 1 scan thread)\n",
              writers);
  for (Kind k : kPaperEngines) {
    WithEngine(k, PaperConfig(), args.rows, [&](auto& e) {
      std::printf("%-28s", EngineName(k));
      for (double th : thetas) {
        Workload wl{args.rows, th};
        WorkloadResult r = Run(args, e, wl, {writers, 1, 0});
        char point[64];
        std::snprintf(point, sizeof(point), "skew.%s.theta%.2f",
                      EngineKey(k), th);
        Report(" %9.1f", std::string(point) + ".update_ktps",
               Ktps(r, kOpUpdate), "Ktxn/s");
        ReportAborts(point, r);
      }
      EndRow();
    });
  }
}

void Cumulation(const BenchArgs& args) {
  PrintHeader("Ablation: cumulative vs non-cumulative updates (Section 3.1)",
              "cumulation trades write-side copying for shorter read chains; "
              "reads win, writes pay slightly");
  // A small hot table, merges off: one updater writes one random
  // column per update, then one reader fetches columns 1 and 2, which
  // a non-cumulative chain keeps in different tail records.
  constexpr uint64_t kRows = 512;
  Workload wl{kRows, 0, TxnShape{0, 1, 1}, 0b0110};
  std::printf("\n%-18s %16s %20s %16s\n", "mode", "updates/s",
              "read txn p50 (us)", "chain hops/read");
  for (bool cumulative : {true, false}) {
    TableConfig tc = PaperConfig(1u << 12, 1u << 30);
    tc.enable_merge_thread = false;
    tc.cumulative_updates = cumulative;
    Engine<Table> e(tc, kRows);
    const char* mode = cumulative ? "cumulative" : "non-cumulative";
    std::string key = std::string("cumulation.") + mode;
    std::printf("%-18s", mode);
    WorkloadResult w = Run(args, e, wl, {1, 0, 0});
    Report(" %16.0f", key + ".updates_s", Ktps(w, kOpUpdate) * 1000, "1/s");
    MetricsRegistry* m = e.table().metrics();
    Counter* chain = m->GetCounter("lstore_tail_chain_hops_total");
    Counter* point_reads = m->GetCounter("lstore_reads_total");
    uint64_t hops0 = chain->value();
    uint64_t reads0 = point_reads->value();
    WorkloadResult r = Run(args, e, wl, {0, 0, 1});
    uint64_t hops = chain->value() - hops0;
    uint64_t reads = point_reads->value() - reads0;
    Report(" %20.2f", key + ".read_txn_p50_us",
           r.stats.lat[kOpRead].PercentileUs(0.5), "us");
    Report(" %16.2f", key + ".hops_per_read",
           reads == 0 ? 0.0 : static_cast<double>(hops) / reads, "hops");
    ReportAborts(key + ".update", w);
    ReportAborts(key + ".read", r);
    EndRow();
  }
}

struct Profile {
  const char* name;
  void (*run)(const BenchArgs&);
};
constexpr Profile kProfiles[] = {
    {"fig7", Fig7},         {"fig8", Fig8},
    {"fig9", Fig9},         {"fig10", Fig10},
    {"table7", Table7},     {"table8", Table8},
    {"table9", Table9},     {"range-size", RangeSize},
    {"skew", Skew},         {"cumulation", Cumulation},
};

}  // namespace
}  // namespace bench
}  // namespace lstore

int main(int argc, char** argv) {
  using namespace lstore::bench;
  BenchArgs args = BenchArgs::ParseOrDie(argc, argv, {1, 2, 4, 8});
  auto selected = [&](const Profile& p) {
    return args.profile == "all" || args.profile == p.name;
  };
  if (std::none_of(std::begin(kProfiles), std::end(kProfiles), selected)) {
    std::fprintf(stderr, "paper: unknown --profile %s\n",
                 args.profile.c_str());
    return 2;
  }
  std::printf("paper: profile=%s rows=%" PRIu64 " duration=%" PRIu64
              "ms warmup=%" PRIu64 "ms seed=%" PRIu64 " max threads=%u\n",
              args.profile.c_str(), args.rows, args.duration_ms,
              args.warmup_ms, args.seed, MaxThreads(args));
  for (const Profile& p : kProfiles) {
    if (selected(p)) p.run(args);
  }
  return 0;
}
