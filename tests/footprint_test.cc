// A range's memory follows its lineage (range.h): once the insert
// merge bases a full range, it keeps only its base segments, each one
// allocation of coded bytes; the insert state is retired and no update
// state exists until the first update. This binary replaces the global
// operator new to count live heap bytes, so it runs alone.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/table.h"

namespace {

/// Live bytes requested through operator new (not counting malloc's
/// own overhead).
std::atomic<int64_t> g_live_bytes{0};

/// Every block carries its size and the malloc'd address ahead of the
/// pointer handed out.
constexpr size_t kPrefix = 2 * sizeof(void*);

void* CountedNew(size_t n, size_t align) {
  align = std::max(align, kPrefix);
  char* raw = static_cast<char*>(std::malloc(n + align + kPrefix));
  if (raw == nullptr) throw std::bad_alloc();
  const auto base = reinterpret_cast<uintptr_t>(raw) + kPrefix;
  char* user = reinterpret_cast<char*>((base + align - 1) / align * align);
  reinterpret_cast<size_t*>(user)[-2] = n;
  reinterpret_cast<char**>(user)[-1] = raw;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return user;
}

void CountedDelete(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(static_cast<size_t*>(p)[-2]),
                         std::memory_order_relaxed);
  std::free(static_cast<char**>(p)[-1]);
}

}  // namespace

// Every form: a sanitizer runtime defines them all, so a form left out
// here would bypass the count.
void* operator new(size_t n) { return CountedNew(n, alignof(max_align_t)); }
void* operator new[](size_t n) { return CountedNew(n, alignof(max_align_t)); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedNew(n, alignof(max_align_t));
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedNew(n, alignof(max_align_t));
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  CountedDelete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}

namespace lstore {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCols = 5;
constexpr uint32_t kRange = 4096;  // TableConfig's range_size
constexpr uint64_t kPage = 512 * sizeof(Value);  // one tail page
/// The insert pages of a range holding fewer than 512 rows: one page in
/// each data and metadata column.
constexpr uint64_t kPartialInsertBytes = (kCols + 3) * kPage;
/// The heap a based, never-updated range may hold: its Range, eight
/// base segments with their buffer-managed pages, and their coded
/// columns.
constexpr int64_t kBasedRangeBytes = 2560;

/// Rows k, k + 1, ... k + 4 for keys [first, first + n): every column
/// climbs with the slot, as the benchmark workloads load.
std::vector<std::vector<Value>> Rows(Value first, Value n) {
  std::vector<std::vector<Value>> rows;
  for (Value k = first; k < first + n; ++k) {
    std::vector<Value> row(kCols);
    for (uint32_t c = 0; c < kCols; ++c) row[c] = k + c;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Load keys [first, first + n) in one transaction, let the merges
/// queued by its commit finish, and free what they retired.
template <typename Begin>
void Load(Table* t, Begin begin, Value first, Value n) {
  {
    Txn txn = begin();
    ASSERT_TRUE(t->InsertBatch(txn, Rows(first, n)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  t->WaitForMergeQueue();
  t->epochs().TryReclaim();
}

/// Live heap bytes once the pool worker that ran the last merge task
/// has let go of it: the worker frees the task's closure just after the
/// queue reports it drained. Three equal reads 5 ms apart.
int64_t LiveBytes() {
  int64_t live = g_live_bytes.load(std::memory_order_relaxed);
  for (int same = 0, i = 0; same < 3 && i < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t now = g_live_bytes.load(std::memory_order_relaxed);
    same = now == live ? same + 1 : 0;
    live = now;
  }
  return live;
}

TEST(FootprintTest, BasedRangeKeepsOnlyItsCodedBase) {
  Schema schema(kCols);
  {
    // Start the shared pool and every lazily built global first.
    Table warm("warm", schema, TableConfig{});
    Load(&warm, [&] { return warm.Begin(); }, 0, kRange);
  }
  Table t("t", schema, TableConfig{});
  auto begin = [&] { return t.Begin(); };
  Load(&t, begin, 0, 4 * kRange);
  // The transaction manager's 64 shard maps keep their bucket arrays
  // once used: touch them all first.
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.Begin().Commit().ok());
  std::vector<int64_t> per_range;
  per_range.reserve(2);
  for (int phase = 0; phase < 2; ++phase) {
    const int64_t before = LiveBytes();
    Load(&t, begin, (4 + 4 * phase) * Value{kRange}, 4 * kRange);
    per_range.push_back((LiveBytes() - before) / 4);
  }
  EXPECT_LE(per_range[0], kBasedRangeBytes);
  EXPECT_EQ(per_range[1], per_range[0]) << "the count must repeat exactly";
  RecordProperty("based_range_heap_bytes", std::to_string(per_range[0]));

  // A partial last range keeps its insert pages, the only tail pages.
  Load(&t, begin, 12 * Value{kRange}, 100);
  EXPECT_EQ(t.num_ranges(), 13u);
  EXPECT_EQ(t.TailBytes(), kPartialInsertBytes);
  EXPECT_EQ(t.UpdateMetaBytes(), 0u);

  // One update builds one range's update state: its Indirection column
  // and the pages of the records it appends (a pre-image and the new
  // version share a page in each of link, start time, schema encoding
  // and column 1).
  const int64_t before = LiveBytes();
  {
    Txn txn = t.Begin();
    std::vector<Value> row(kCols, 0);
    row[1] = 7;
    ASSERT_TRUE(t.Update(txn, kRange + 7, 0b10, row).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(t.UpdateMetaBytes(), uint64_t{kRange} * 8);
  EXPECT_EQ(t.TailBytes(), kPartialInsertBytes + 4 * kPage);
  for (uint64_t id = 0; id < t.num_ranges(); ++id) {
    EXPECT_EQ(t.RangeTailLength(id), id == 1 ? 2u : 0u) << id;
  }
  const int64_t added = LiveBytes() - before;
  EXPECT_GE(added, static_cast<int64_t>(kRange * 8 + 4 * kPage));
  EXPECT_LE(added, static_cast<int64_t>(kRange * 8 + 4 * kPage) +
                       kBasedRangeBytes);
}

/// Write `full` full ranges plus 100 rows to a durable table in `dir`,
/// checkpoint, close, and reopen it; returns the live heap the reopened
/// database holds, after checking what its ranges hold.
int64_t RestoredBytes(const std::string& dir, uint32_t full) {
  fs::remove_all(dir);
  {
    std::unique_ptr<Database> db;
    EXPECT_TRUE(Database::Open(dir, DurabilityOptions{}, &db).ok());
    EXPECT_TRUE(db->CreateTable("t", Schema(kCols), TableConfig{}).ok());
    Table* t = db->GetTable("t");
    Load(t, [&] { return db->Begin(); }, 0, full * Value{kRange} + 100);
    EXPECT_EQ(t->TailBytes(), kPartialInsertBytes);
    EXPECT_TRUE(db->Checkpoint().ok());
  }
  const int64_t before = LiveBytes();
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(dir, DurabilityOptions{}, &db).ok());
  const int64_t bytes = LiveBytes() - before;
  Table* t = db->GetTable("t");
  EXPECT_NE(t, nullptr);
  if (t == nullptr) return bytes;
  // The full ranges come back based; only the partial one rebuilds its
  // insert pages, and no range has update state.
  EXPECT_EQ(t->num_ranges(), full + 1);
  EXPECT_EQ(t->TailBytes(), kPartialInsertBytes);
  EXPECT_EQ(t->UpdateMetaBytes(), 0u);
  Txn txn = db->Begin();
  const Value last = full * Value{kRange};
  for (Value k : {Value{0}, last - 1, last + 99}) {
    std::vector<Value> row;
    EXPECT_TRUE(t->Read(txn, k, t->schema().AllColumns(), &row).ok()) << k;
    if (row.size() == kCols) {
      EXPECT_EQ(row[4], k + 4) << k;
    }
  }
  EXPECT_TRUE(txn.Commit().ok());
  db.reset();
  fs::remove_all(dir);
  return bytes;
}

TEST(FootprintTest, RestartBuildsNoInsertStateForFullRanges) {
  // A restored full range holds what a loaded one does: the checkpoint
  // restores it based, so it never builds insert state. The two
  // restarts' fixed costs cancel out.
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_footprint_restart";
  const int64_t four = RestoredBytes(dir, 4);
  const int64_t eight = RestoredBytes(dir, 8);
  EXPECT_LE((eight - four) / 4, kBasedRangeBytes);
  RecordProperty("restored_range_heap_bytes",
                 std::to_string((eight - four) / 4));
}

}  // namespace
}  // namespace lstore
