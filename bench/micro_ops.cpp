// Google-benchmark micro benchmarks of the primitive operations:
// insert, point read (merged / tail-resident), update, merge, scan
// fast path, codec build/point-read/scan over four column shapes, and
// the primary index's bulk load and point lookups. These are the
// building blocks the paper's end-to-end numbers decompose into.

#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "core/table.h"
#include "index/primary_index.h"
#include "storage/compressed_column.h"

namespace {

using namespace lstore;

TableConfig BenchConfig() {
  TableConfig cfg;
  cfg.range_size = 1u << 12;
  cfg.insert_range_size = 1u << 12;
  cfg.merge_threshold = 1u << 11;
  cfg.enable_merge_thread = false;
  return cfg;
}

std::unique_ptr<Table> MakeLoadedTable(uint64_t rows, bool merged) {
  auto table = std::make_unique<Table>("b", Schema(11), BenchConfig());
  Txn txn = table->Begin();
  std::vector<Value> row(11);
  for (Value k = 0; k < rows; ++k) {
    row[0] = k;
    for (int c = 1; c < 11; ++c) row[c] = k + c;
    (void)table->Insert(txn, row);
  }
  (void)txn.Commit();
  if (merged) table->FlushAll();
  return table;
}

void BM_Insert(benchmark::State& state) {
  auto table = std::make_unique<Table>("b", Schema(11), BenchConfig());
  std::vector<Value> row(11, 1);
  Value key = 0;
  for (auto _ : state) {
    row[0] = key++;
    Txn txn = table->Begin();
    benchmark::DoNotOptimize(table->Insert(txn, row));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Insert);

void BM_PointReadMergedBase(benchmark::State& state) {
  auto table = MakeLoadedTable(1u << 12, /*merged=*/true);
  Random rng(1);
  std::vector<Value> out;
  for (auto _ : state) {
    Txn txn = table->Begin();
    benchmark::DoNotOptimize(
        table->Read(txn, rng.Uniform(1u << 12), 0b0110, &out));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointReadMergedBase);

void BM_PointReadTailResident(benchmark::State& state) {
  auto table = MakeLoadedTable(1u << 12, /*merged=*/true);
  Random rng(2);
  // Touch every record once so reads chase one tail hop.
  for (Value k = 0; k < (1u << 12); ++k) {
    Txn txn = table->Begin();
    std::vector<Value> row(11, 0);
    row[1] = k;
    (void)table->Update(txn, k, 0b0010, row);
    (void)txn.Commit();
  }
  std::vector<Value> out;
  for (auto _ : state) {
    Txn txn = table->Begin();
    benchmark::DoNotOptimize(
        table->Read(txn, rng.Uniform(1u << 12), 0b0010, &out));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointReadTailResident);

void BM_Update(benchmark::State& state) {
  auto table = MakeLoadedTable(1u << 12, /*merged=*/true);
  Random rng(3);
  std::vector<Value> row(11, 7);
  for (auto _ : state) {
    Txn txn = table->Begin();
    benchmark::DoNotOptimize(
        table->Update(txn, rng.Uniform(1u << 12), 0b0010, row));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Update);

void BM_UpdateFourColumns(benchmark::State& state) {
  // The paper's workload updates ~40% of columns per write.
  auto table = MakeLoadedTable(1u << 12, /*merged=*/true);
  Random rng(4);
  std::vector<Value> row(11, 7);
  for (auto _ : state) {
    Txn txn = table->Begin();
    benchmark::DoNotOptimize(
        table->Update(txn, rng.Uniform(1u << 12), 0b11110, row));
    (void)txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateFourColumns);

void BM_MergeRange(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto table = MakeLoadedTable(1u << 12, /*merged=*/true);
    Random rng(5);
    std::vector<Value> row(11, 9);
    for (int i = 0; i < 2048; ++i) {
      Txn txn = table->Begin();
      (void)table->Update(txn, rng.Uniform(1u << 12), 0b0010, row);
      (void)txn.Commit();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(table->MergeRangeNow(0));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_MergeRange)->Unit(benchmark::kMillisecond);

void BM_ScanMerged(benchmark::State& state) {
  auto table = MakeLoadedTable(1u << 14, /*merged=*/true);
  for (auto _ : state) {
    uint64_t sum = 0;
    Timestamp now = table->Now();
    (void)table->NewQuery().AsOf(now).Sum(1, &sum);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * (1u << 14));
}
BENCHMARK(BM_ScanMerged);

/// The codec benchmarks' column shapes, one 4096-slot segment each.
constexpr size_t kSegmentSlots = 4096;
constexpr const char* kColumnShapes[] = {"k+c", "jittered_linear",
                                         "random_44bit", "for_with_null"};

/// Shape `shape` of kColumnShapes: k + c (a line, 0-bit codes); 2i plus
/// 0-2 (a line, 2-bit codes); random 44-bit values (plain); 12-bit
/// random offsets with ∅ in every 50th slot (stride-0 FOR, 13 bits).
std::vector<Value> ColumnShape(int64_t shape) {
  Random rng(6);
  std::vector<Value> vals(kSegmentSlots);
  for (Value i = 0; i < kSegmentSlots; ++i) {
    switch (shape) {
      case 0: vals[i] = 3 * kSegmentSlots + i + 7; break;
      case 1: vals[i] = 2 * i + rng.Uniform(3); break;
      case 2: vals[i] = rng.Next() >> 20; break;
      default:
        vals[i] = i % 50 == 7 ? kNull : 1000000 + rng.Uniform(4096);
        break;
    }
  }
  return vals;
}

void ColumnShapes(benchmark::internal::Benchmark* b) {
  b->ArgName("shape")->DenseRange(0, std::size(kColumnShapes) - 1);
}

/// Label the run with its shape and report the segment's bytes per
/// value beside `items` values processed.
void ReportColumn(benchmark::State& state, const CompressedColumn& col,
                  int64_t items) {
  state.SetLabel(kColumnShapes[state.range(0)]);
  state.counters["bytes_per_value"] =
      static_cast<double>(col.byte_size()) / kSegmentSlots;
  state.SetItemsProcessed(items);
}

void BM_ColumnBuild(benchmark::State& state) {
  const std::vector<Value> vals = ColumnShape(state.range(0));
  std::unique_ptr<CompressedColumn> col;
  for (auto _ : state) {
    col = CompressedColumn::Build(vals, true);
    benchmark::DoNotOptimize(col.get());
  }
  ReportColumn(state, *col, state.iterations() * kSegmentSlots);
}
BENCHMARK(BM_ColumnBuild)->Apply(ColumnShapes);

void BM_ColumnGet(benchmark::State& state) {
  auto col = CompressedColumn::Build(ColumnShape(state.range(0)), true);
  size_t i = 0;
  for (auto _ : state) {
    // An odd step visits every slot in a scattered order.
    i = (i + 1237) % kSegmentSlots;
    benchmark::DoNotOptimize(col->Get(i));
  }
  ReportColumn(state, *col, state.iterations());
}
BENCHMARK(BM_ColumnGet)->Apply(ColumnShapes);

void BM_ColumnScan(benchmark::State& state) {
  auto col = CompressedColumn::Build(ColumnShape(state.range(0)), true);
  for (auto _ : state) {
    auto cur = col->cursor();
    Value sum = 0;
    for (size_t i = 0; i < kSegmentSlots; ++i) sum += cur.At(i);
    benchmark::DoNotOptimize(sum);
  }
  ReportColumn(state, *col, state.iterations() * kSegmentSlots);
}
BENCHMARK(BM_ColumnScan)->Apply(ColumnShapes);

constexpr Value kIndexKeys = 1u << 20;
constexpr size_t kIndexBatch = 1024;

/// Key i of an index benchmark. Narrow keys are sequential and below
/// 2^32 (8-byte slots); wide keys (state.range(0) == 1) are i
/// scrambled within 40 bits with bit 40 set, so each is distinct and
/// takes a 12-byte slot.
Value IndexKey(Value i, bool wide) {
  if (!wide) return i;
  constexpr Value kLow40 = (Value{1} << 40) - 1;
  return (Value{1} << 40) | ((i * 0xbf58476d1ce4e5b9ull) & kLow40);
}

/// `n` keys (a multiple of kIndexBatch) in kIndexBatch-key InsertBatch
/// calls, key i naming RID i.
void LoadIndex(PrimaryIndex* idx, bool wide, Value n) {
  std::vector<Value> keys(kIndexBatch);
  std::vector<Rid> rids(kIndexBatch);
  bool ok[kIndexBatch];
  for (Value b = 0; b < n; b += kIndexBatch) {
    for (size_t i = 0; i < kIndexBatch; ++i) {
      rids[i] = b + i;
      keys[i] = IndexKey(b + i, wide);
    }
    idx->InsertBatch(keys.data(), rids.data(), kIndexBatch, ok);
  }
}

/// Index space: byte_size() over the `n` keys.
void SetBytesPerKey(benchmark::State& state, size_t bytes, Value n) {
  state.counters["bytes_per_key"] = static_cast<double>(bytes) / n;
}

/// Both slot widths at 2^16, 2^18, 2^20 and 2^22 keys.
void IndexSizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"wide", "keys"});
  for (int64_t wide : {0, 1}) {
    for (int shift : {16, 18, 20, 22}) b->Args({wide, int64_t{1} << shift});
  }
}

void BM_IndexLoad(benchmark::State& state) {
  const bool wide = state.range(0) != 0;
  const Value n = static_cast<Value>(state.range(1));
  size_t bytes = 0;
  for (auto _ : state) {
    PrimaryIndex idx;
    LoadIndex(&idx, wide, n);
    benchmark::DoNotOptimize(idx.size());
    bytes = idx.byte_size();
  }
  SetBytesPerKey(state, bytes, n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexLoad)->Apply(IndexSizes)->Unit(benchmark::kMillisecond);

void BM_IndexGet(benchmark::State& state) {
  const bool wide = state.range(0) != 0;
  const Value n = static_cast<Value>(state.range(1));
  PrimaryIndex idx;
  LoadIndex(&idx, wide, n);
  Random rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Get(IndexKey(rng.Uniform(n), wide)));
  }
  SetBytesPerKey(state, idx.byte_size(), n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexGet)->Apply(IndexSizes)->Iterations(4u << 20);

void BM_IndexMultiGet8(benchmark::State& state) {
  const bool wide = state.range(0) != 0;
  PrimaryIndex idx;
  LoadIndex(&idx, wide, kIndexKeys);
  Random rng(8);
  Value keys[8];
  Rid out[8];
  for (auto _ : state) {
    for (Value& k : keys) k = IndexKey(rng.Uniform(kIndexKeys), wide);
    idx.MultiGet(keys, 8, out);
    benchmark::DoNotOptimize(out);
  }
  SetBytesPerKey(state, idx.byte_size(), kIndexKeys);
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_IndexMultiGet8)
    ->ArgName("wide")
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1u << 19);

}  // namespace

BENCHMARK_MAIN();
