// Logging & recovery tests (Section 5.1.3): redo-only log for tail
// pages, commit/abort outcomes, torn-tail handling, indirection
// rebuild, and merge idempotence after recovery.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checkpoint/serde.h"
#include "common/bitutil.h"
#include "core/database.h"
#include "core/query.h"
#include "core/table.h"
#include "log/redo_log.h"
#include "obs/metrics.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

std::string TempLogPath(const char* name) {
  return std::string(::testing::TempDir()) + "lstore_" + name + ".log";
}

TableConfig LogConfig(const std::string& path) {
  TableConfig cfg;
  cfg.range_size = 32;
  cfg.insert_range_size = 32;
  cfg.tail_page_slots = 8;
  cfg.enable_merge_thread = false;
  cfg.enable_logging = true;
  cfg.log_path = path;
  return cfg;
}

TEST(RedoLogTest, PayloadRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kTailAppend;
  rec.txn_id = kTxnIdTag | 42;
  rec.range_id = 3;
  rec.seq = 17;
  rec.base_slot = 9;
  rec.backptr = 16;
  rec.schema_encoding = 0b0110 | kSnapshotFlag;
  rec.start_raw = 12345;
  rec.mask = 0b0110;
  rec.values = {111, 222};
  std::string payload;
  RedoLog::EncodePayload(rec, &payload);
  LogRecord out;
  ASSERT_TRUE(RedoLog::DecodePayload(payload.data(), payload.size(), &out));
  EXPECT_EQ(out.txn_id, rec.txn_id);
  EXPECT_EQ(out.seq, rec.seq);
  EXPECT_EQ(out.backptr, rec.backptr);
  EXPECT_EQ(out.schema_encoding, rec.schema_encoding);
  EXPECT_EQ(out.start_raw, rec.start_raw);
  EXPECT_EQ(out.values, rec.values);
}

std::string ReadWholeFile(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) data.append(chunk, n);
  std::fclose(f);
  return data;
}

uint64_t FileSize(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// The append-record encoding as the log format defines it, field by
// field through PutVarint64: the reference the one-pass writer must
// match byte for byte.
std::string ReferenceAppendPayload(const LogRecord& rec) {
  std::string out;
  out.push_back(static_cast<char>(rec.type));
  for (uint64_t field : {rec.txn_id, rec.range_id, uint64_t{rec.seq},
                         uint64_t{rec.base_slot}, uint64_t{rec.backptr},
                         rec.schema_encoding, rec.start_raw, rec.mask}) {
    PutVarint64(&out, field);
  }
  for (Value v : rec.values) PutVarint64(&out, v);
  return out;
}

RedoLog::AppendWriter WriterFor(const LogRecord& rec) {
  RedoLog::AppendWriter w(rec.type, rec.txn_id, rec.range_id, rec.seq,
                          rec.base_slot, rec.backptr, rec.schema_encoding,
                          rec.start_raw, rec.mask);
  for (Value v : rec.values) w.AddValue(v);
  return w;
}

// Random append records — 0 to 64 columns, values up to ~0ull, and
// maximal seq/slot fields — encode identically through the writer,
// EncodePayload, and the reference, and decode back to themselves.
TEST(RedoLogTest, AppendWriterMatchesReferenceEncoding) {
  std::mt19937_64 rng(7);
  auto any = [&rng] { return rng() >> (rng() % 64); };  // all widths
  std::vector<int> bits(64);
  for (int i = 0; i < 3000; ++i) {
    LogRecord rec;
    rec.type = i % 2 == 0 ? LogRecordType::kTailAppend
                          : LogRecordType::kInsertAppend;
    rec.txn_id = i % 5 == 0 ? ~0ull : kTxnIdTag | any();
    rec.range_id = i % 7 == 0 ? ~0ull : any();
    rec.seq = i % 3 == 0 ? ~0u : static_cast<uint32_t>(any());
    rec.base_slot = i % 3 == 1 ? ~0u : static_cast<uint32_t>(any());
    rec.backptr = i % 3 == 2 ? ~0u : static_cast<uint32_t>(any());
    rec.schema_encoding = any();
    rec.start_raw = any();
    std::iota(bits.begin(), bits.end(), 0);
    std::shuffle(bits.begin(), bits.end(), rng);
    int cols = i % 65;
    for (int b = 0; b < cols; ++b) rec.mask |= 1ull << bits[b];
    for (int c = 0; c < cols; ++c) {
      rec.values.push_back(c % 4 == 0 ? ~0ull : any());
    }
    std::string reference = ReferenceAppendPayload(rec);
    RedoLog::AppendWriter w = WriterFor(rec);
    ASSERT_EQ(w.payload(), reference) << "record " << i;
    std::string encoded;
    RedoLog::EncodePayload(rec, &encoded);
    ASSERT_EQ(encoded, reference) << "record " << i;
    LogRecord out;
    ASSERT_TRUE(RedoLog::DecodePayload(encoded.data(), encoded.size(), &out));
    EXPECT_EQ(out.type, rec.type);
    EXPECT_EQ(out.txn_id, rec.txn_id);
    EXPECT_EQ(out.range_id, rec.range_id);
    EXPECT_EQ(out.seq, rec.seq);
    EXPECT_EQ(out.base_slot, rec.base_slot);
    EXPECT_EQ(out.backptr, rec.backptr);
    EXPECT_EQ(out.schema_encoding, rec.schema_encoding);
    EXPECT_EQ(out.start_raw, rec.start_raw);
    EXPECT_EQ(out.mask, rec.mask);
    EXPECT_EQ(out.values, rec.values);
  }
}

// The on-disk bytes of a small InsertBatch frame, pinned so any drift
// in the redo format fails loudly. Frame: [len 15][kBatch 06], then ONE
// insert run for the range the two rows share: [kInsertRun 07][txn id]
// [range 00][first slot 00][count 02][mask 03], then the values row by
// row (1, 300 = ac02; 2, 5), then the crc32c of the payload (f91494c8,
// little-endian). The first transaction's id is kTxnIdTag | 1, a
// 10-byte varint.
TEST(RedoLogTest, InsertBatchFrameGoldenBytes) {
  std::string path = TempLogPath("golden_batch");
  std::remove(path.c_str());
  {
    Table table("g", Schema(2), LogConfig(path));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    ASSERT_TRUE(table.InsertBatch(txn, {{1, 300}, {2, 5}}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::string data = ReadWholeFile(path);
  size_t pos = 0;
  uint64_t len = 0;
  ASSERT_TRUE(GetVarint64(data, &pos, &len));
  ASSERT_LE(pos + len + sizeof(uint32_t), data.size());
  std::string frame = data.substr(0, pos + len + sizeof(uint32_t));
  std::string hex;
  for (unsigned char c : frame) {
    static const char* kDigits = "0123456789abcdef";
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  EXPECT_EQ(hex,
            "1506"
            "07" "81808080808080808001" "00" "00" "02" "03"
            "01" "ac02"
            "02" "05"
            "c89414f9");
  std::remove(path.c_str());
}

// What a replay delivered: each record's type, txn id and LSN.
using Delivered = std::vector<std::tuple<LogRecordType, TxnId, uint64_t>>;

// Replay the damaged log at `path`, then open it for appending with the
// same delivery: the open-time scan must deliver exactly the records
// and LSNs that Replay does, resume the LSN counter at the last good
// record and cut the file at the last good frame. Returns what Replay
// delivered.
Delivered ReplayThenOpenAlike(const std::string& path) {
  Delivered replayed, opened;
  RedoLog::ReplayStats stats;
  EXPECT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    replayed.emplace_back(rec.type, rec.txn_id, lsn);
                  },
                  &stats)
                  .ok());
  EXPECT_FALSE(stats.clean_end);
  RedoLog log;
  EXPECT_TRUE(log.Open(path, /*truncate=*/false,
                       [&](const LogRecord& rec, uint64_t lsn) {
                         opened.emplace_back(rec.type, rec.txn_id, lsn);
                       })
                  .ok());
  EXPECT_EQ(opened, replayed);
  EXPECT_EQ(log.last_lsn(), stats.last_lsn);
  EXPECT_EQ(log.last_lsn(),
            replayed.empty() ? 0u : std::get<2>(replayed.back()));
  log.Close();
  EXPECT_EQ(FileSize(path), stats.bytes_consumed);
  return replayed;
}

TEST(RedoLogTest, ReplayStopsAtTornTail) {
  std::string path = TempLogPath("torn");
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (int i = 0; i < 5; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.txn_id = kTxnIdTag | (100 + i);
      rec.commit_time = 100 + i;
      log.Append(rec);
    }
    ASSERT_TRUE(log.Flush(false).ok());
  }
  // Truncate mid-frame to simulate a crash during a write.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    ASSERT_EQ(0, ::truncate(path.c_str(), sz - 3));
    std::fclose(f);
  }
  int count = 0;
  ASSERT_TRUE(RedoLog::Replay(path, [&](const LogRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 4);  // last frame torn, first four intact
  // Opened for appending, the same file delivers the same four.
  Delivered delivered = ReplayThenOpenAlike(path);
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(std::get<1>(delivered[3]), kTxnIdTag | 103);
  EXPECT_EQ(std::get<2>(delivered[3]), 4u);
  std::remove(path.c_str());
}

TEST(RedoLogTest, ReplayStopsAtCorruptChecksum) {
  std::string path = TempLogPath("corrupt");
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, true).ok());
    for (int i = 0; i < 3; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kAbort;
      rec.txn_id = kTxnIdTag | (7 + i);
      log.Append(rec);
    }
    ASSERT_TRUE(log.Flush(false).ok());
  }
  {
    // Flip a byte in the middle of the file (second record's payload).
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, sz / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, sz / 2, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  int count = 0;
  ASSERT_TRUE(RedoLog::Replay(path, [&](const LogRecord&) { ++count; }).ok());
  EXPECT_LT(count, 3);
  // Opened for appending, the same file delivers the same prefix.
  EXPECT_EQ(ReplayThenOpenAlike(path).size(), static_cast<size_t>(count));
  std::remove(path.c_str());
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempLogPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesRestart) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    for (Value k = 0; k < 10; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k * 2, k * 3}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    Txn u = table.Begin();
    ASSERT_TRUE(table.Update(u, 4, 0b010, {0, 999, 0}).ok());
    ASSERT_TRUE(u.Commit().ok());
    // Destructor closes the log; the "crash" discards all memory.
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 4, 0b111, &out).ok());
  EXPECT_EQ(out, (std::vector<Value>{4, 999, 12}));
  ASSERT_TRUE(table.Read(r, 7, 0b111, &out).ok());
  EXPECT_EQ(out, (std::vector<Value>{7, 14, 21}));
  (void)r.Commit();
}

TEST_F(RecoveryTest, UncommittedTransactionRolledBackOnRecovery) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn setup = table.Begin();
    ASSERT_TRUE(table.Insert(setup, {1, 10, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
    // In-flight transaction: tail records logged, no commit record.
    Txn open = table.Begin();
    ASSERT_TRUE(table.Update(open, 1, 0b010, {0, 777, 0}).ok());
    ASSERT_TRUE(table.Insert(open, {2, 30, 40}).ok());
    // Force the appends to disk without committing.
    // (Flush happens on commit normally; simulate via a committed
    // no-op transaction that triggers the group-commit flush.)
    Txn noop = table.Begin();
    ASSERT_TRUE(noop.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 10u);  // uncommitted update rolled back
  EXPECT_TRUE(table.Read(r, 2, 0b111, &out).IsNotFound());
  (void)r.Commit();
}

TEST_F(RecoveryTest, AbortRecordHonoredOnRecovery) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn setup = table.Begin();
    ASSERT_TRUE(table.Insert(setup, {1, 10, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
    Txn bad = table.Begin();
    ASSERT_TRUE(table.Update(bad, 1, 0b010, {0, 666, 0}).ok());
    bad.Abort();
    Txn good = table.Begin();
    ASSERT_TRUE(table.Update(good, 1, 0b010, {0, 42, 0}).ok());
    ASSERT_TRUE(good.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 42u);
  (void)r.Commit();
}

TEST_F(RecoveryTest, RecoveredTableAcceptsNewTransactions) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    ASSERT_TRUE(table.Insert(txn, {1, 10, 20}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  // The clock resumed beyond replayed times: new updates win.
  Txn u = table.Begin();
  ASSERT_TRUE(table.Update(u, 1, 0b010, {0, 11, 0}).ok());
  ASSERT_TRUE(u.Commit().ok());
  Txn n = table.Begin();
  ASSERT_TRUE(table.Insert(n, {2, 20, 30}).ok());
  ASSERT_TRUE(n.Commit().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(table.Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 11u);
  (void)r.Commit();
}

TEST_F(RecoveryTest, DoubleRecoveryIsIdempotent) {
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    for (Value k = 0; k < 5; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int round = 0; round < 2; ++round) {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    EXPECT_EQ(table.num_rows(), 5u);
    Txn r = table.Begin();
    std::vector<Value> out;
    ASSERT_TRUE(table.Read(r, 3, 0b010, &out).ok());
    EXPECT_EQ(out[1], 3u);
    (void)r.Commit();
  }
}

TEST_F(RecoveryTest, MergeAfterRecoveryIsConsistent) {
  // "The merge process is idempotent ... If crash occurs during the
  // merge, simply the partial merge results can be ignored and the
  // merge can be restarted." Merges are not logged; after recovery the
  // merge re-runs from TPS 0 and must produce the same visible state.
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    for (Value k = 0; k < 32; ++k) {
      ASSERT_TRUE(table.Insert(txn, {k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    for (Value k = 0; k < 32; ++k) {
      Txn u = table.Begin();
      ASSERT_TRUE(table.Update(u, k, 0b010, {0, k + 1000, 0}).ok());
      ASSERT_TRUE(u.Commit().ok());
    }
    table.FlushAll();  // merge ran before the crash
  }
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  table.FlushAll();  // restart the merge from scratch
  for (Value k = 0; k < 32; ++k) {
    Txn r = table.Begin();
    std::vector<Value> out;
    ASSERT_TRUE(table.Read(r, k, 0b010, &out).ok());
    EXPECT_EQ(out[1], k + 1000);
    (void)r.Commit();
  }
}

// An abort record may FOLLOW a commit record of the same transaction:
// the pipeline appends per-table commit records first and aborts if a
// later step fails. Recovery must honor the abort — replaying such a
// log as committed would resurrect writes the live process tombstoned.
// Key of every visible row by base RID (absent = no visible row), with
// the row's column 1.
std::vector<std::pair<Value, Value>> RowsByRid(const Table& table) {
  std::vector<std::pair<Value, Value>> rows(table.num_rows(), {kNull, kNull});
  for (uint64_t rid = 0; rid < rows.size(); ++rid) {
    EXPECT_TRUE(table.NewQuery()
                    .Range(rid, 1)
                    .Workers(1)
                    .Visit([&](Value key, const std::vector<Value>& row) {
                      rows[rid] = {key, row[1]};
                    })
                    .ok());
  }
  return rows;
}

TEST_F(RecoveryTest, IndexRebuildKeepsRidsPastAbortedAndBurnedSlots) {
  auto batch = [](Value first, Value count) {
    std::vector<std::vector<Value>> rows;
    for (Value k = first; k < first + count; ++k) rows.push_back({k, k, 0});
    return rows;
  };
  std::vector<std::pair<Value, Value>> before;
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn load = table.Begin();
    ASSERT_TRUE(table.InsertBatch(load, batch(0, 100)).ok());  // RIDs 0..99
    ASSERT_TRUE(load.Commit().ok());
    Txn aborted = table.Begin();  // RIDs 100..109, aborted
    ASSERT_TRUE(table.InsertBatch(aborted, batch(1000, 10)).ok());
    aborted.Abort();
    // RIDs 110..159: the duplicate key 3 at row 5 keeps 110..114 and
    // burns 115..159 (they straddle two range boundaries).
    std::vector<std::vector<Value>> failing = batch(2000, 50);
    failing[5][0] = 3;
    Txn partial = table.Begin();
    EXPECT_TRUE(table.InsertBatch(partial, failing).IsAlreadyExists());
    ASSERT_TRUE(partial.Commit().ok());
    Txn tail = table.Begin();  // RIDs 160..199
    ASSERT_TRUE(table.InsertBatch(tail, batch(3000, 40)).ok());
    ASSERT_TRUE(tail.Commit().ok());
    Txn u = table.Begin();
    ASSERT_TRUE(table.Update(u, 50, 0b010, {0, 5, 0}).ok());
    ASSERT_TRUE(u.Commit().ok());
    ASSERT_EQ(table.num_rows(), 200u);
    before = RowsByRid(table);
  }
  EXPECT_EQ(before[50], (std::pair<Value, Value>{50, 5}));
  EXPECT_EQ(before[100].first, kNull);
  EXPECT_EQ(before[114].first, 2004u);
  EXPECT_EQ(before[115].first, kNull);
  EXPECT_EQ(before[160].first, 3000u);

  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  ASSERT_EQ(table.num_rows(), 200u);
  EXPECT_EQ(RowsByRid(table), before);
  // The index maps each key to the RID that holds it: updating every
  // key through the index lands on its own row.
  Txn u = table.Begin();
  for (const auto& [key, v] : before) {
    if (key == kNull) continue;
    ASSERT_TRUE(table.Update(u, key, 0b010, {0, key + 100000, 0}).ok());
  }
  ASSERT_TRUE(u.Commit().ok());
  std::vector<std::pair<Value, Value>> after = RowsByRid(table);
  for (size_t rid = 0; rid < after.size(); ++rid) {
    EXPECT_EQ(after[rid].first, before[rid].first) << rid;
    if (after[rid].first != kNull) {
      EXPECT_EQ(after[rid].second, after[rid].first + 100000) << rid;
    }
  }
  // Aborted and burned keys were never indexed.
  Txn again = table.Begin();
  ASSERT_TRUE(table.Insert(again, {1000, 1, 1}).ok());
  ASSERT_TRUE(table.Insert(again, {2010, 1, 1}).ok());
  ASSERT_TRUE(again.Commit().ok());
}

// --- insert runs -----------------------------------------------------------

// Every row by base RID up to the last visible one: the visible row's
// columns, or empty. (Slots a failed batch burned past the last logged
// row are not recovered at all, so they do not count.)
std::vector<std::vector<Value>> RowsOf(const Table& table) {
  std::vector<std::vector<Value>> rows(table.num_rows());
  for (uint64_t rid = 0; rid < rows.size(); ++rid) {
    EXPECT_TRUE(table.NewQuery()
                    .Range(rid, 1)
                    .Workers(1)
                    .Visit([&](Value, const std::vector<Value>& row) {
                      rows[rid] = row;
                    })
                    .ok());
  }
  while (!rows.empty() && rows.back().empty()) rows.pop_back();
  return rows;
}

// Rows {k, 10k, 100k} for keys [first, first + count).
std::vector<std::vector<Value>> KeyRows(Value first, Value count) {
  std::vector<std::vector<Value>> rows;
  for (Value k = first; k < first + count; ++k) {
    rows.push_back({k, k * 10, k * 100});
  }
  return rows;
}

struct LoggedRun {
  uint64_t range, first_slot, count;
  bool operator==(const LoggedRun&) const = default;
};

// The insert runs of the log's first frame, which must hold nothing
// else: [kBatch], then per run [kInsertRun][txn][range][first slot]
// [count][mask] and count x popcount(mask) values.
std::vector<LoggedRun> RunsInFirstFrame(const std::string& path) {
  std::string data = ReadWholeFile(path);
  size_t pos = 0;
  uint64_t len = 0;
  EXPECT_TRUE(GetVarint64(data, &pos, &len));
  std::string payload = data.substr(pos, len);
  EXPECT_EQ(static_cast<LogRecordType>(payload[0]), LogRecordType::kBatch);
  std::vector<LoggedRun> runs;
  pos = 1;
  while (pos < payload.size()) {
    if (static_cast<LogRecordType>(payload[pos++]) !=
        LogRecordType::kInsertRun) {
      ADD_FAILURE() << "not an insert run at byte " << pos - 1;
      break;
    }
    uint64_t txn = 0, mask = 0, v = 0;
    LoggedRun run{};
    for (uint64_t* field :
         {&txn, &run.range, &run.first_slot, &run.count, &mask}) {
      EXPECT_TRUE(GetVarint64(payload, &pos, field));
    }
    for (uint64_t i = 0; i < run.count * PopCount(mask); ++i) {
      EXPECT_TRUE(GetVarint64(payload, &pos, &v));
    }
    runs.push_back(run);
  }
  return runs;
}

// A restart rebuilds the primary index with one batched insert per
// range. The rebuilt index must take a loaded index's bytes per key,
// not leave its keys in the fresh runs that new keys go to first: at
// this row count a fresh run holding a shard's every key has just
// grown, to 0.6 full, and would take over 13 bytes per key.
TEST_F(RecoveryTest, RebuiltPrimaryIndexKeepsTheLoadedFootprint) {
  constexpr Value kRows = 264 * 1024;
  TableConfig cfg = LogConfig(path_);
  cfg.range_size = 4096;
  cfg.insert_range_size = 4096;
  cfg.tail_page_slots = 64;
  size_t loaded = 0;
  {
    Table table("t", Schema(3), cfg);
    ASSERT_TRUE(table.RecoverFromLog().ok());
    for (Value k = 0; k < kRows; k += 1024) {
      Txn txn = table.Begin();
      ASSERT_TRUE(table.InsertBatch(txn, KeyRows(k, 1024)).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    loaded = table.PrimaryIndexBytes();
  }
  Table table("t", Schema(3), cfg);
  ASSERT_TRUE(table.RecoverFromLog().ok());
  ASSERT_EQ(table.num_rows(), kRows);
  // 8-byte slots, 0.95 full in the static runs.
  for (const size_t bytes : {loaded, table.PrimaryIndexBytes()}) {
    EXPECT_GE(bytes, kRows * 8);
    EXPECT_LE(bytes, kRows * 9.5);
  }
}

// A batch that crosses a range boundary is ONE frame holding one run
// per range, and replay hands back one record per row, each with its
// own LSN.
TEST_F(RecoveryTest, BatchAcrossRangesLogsOneRunPerRangeInOneFrame) {
  {
    Table table("t", Schema(3), LogConfig(path_));  // 32-slot ranges
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn txn = table.Begin();
    ASSERT_TRUE(table.InsertBatch(txn, KeyRows(0, 50)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(RunsInFirstFrame(path_),
            (std::vector<LoggedRun>{{0, 0, 32}, {1, 0, 18}}));

  uint64_t next_lsn = 1;
  Value next_key = 0;
  ASSERT_TRUE(RedoLog::Replay(
                  path_,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    EXPECT_EQ(lsn, next_lsn++);
                    if (rec.type != LogRecordType::kInsertAppend) return;
                    const Value k = next_key++;
                    EXPECT_EQ(rec.range_id, k / 32);
                    EXPECT_EQ(rec.base_slot, k % 32);
                    EXPECT_EQ(rec.seq, rec.base_slot + 1);
                    EXPECT_EQ(rec.start_raw, rec.txn_id);
                    EXPECT_EQ(rec.mask, 0b111u);
                    EXPECT_EQ(rec.values,
                              (std::vector<Value>{k, k * 10, k * 100}));
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(next_key, 50u);
  EXPECT_EQ(next_lsn, 52u);  // 50 rows + the commit record

  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  EXPECT_EQ(RowsOf(table), KeyRows(0, 50));
}

// A batch stopped at a duplicate key logs only the rows it inserted;
// the slots it reserved past the duplicate are never logged and come
// back invisible, and their keys stay free.
TEST_F(RecoveryTest, DuplicateKeyBatchLogsOnlyTheInsertedPrefix) {
  std::vector<std::vector<Value>> before;
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    Txn load = table.Begin();  // RIDs 0..9
    ASSERT_TRUE(table.InsertBatch(load, KeyRows(0, 10)).ok());
    ASSERT_TRUE(load.Commit().ok());
    // RIDs 10..29: the duplicate key 3 at row 6 keeps 10..15 and burns
    // 16..29.
    std::vector<std::vector<Value>> failing = KeyRows(100, 20);
    failing[6][0] = 3;
    Txn partial = table.Begin();
    EXPECT_TRUE(table.InsertBatch(partial, failing).IsAlreadyExists());
    ASSERT_TRUE(partial.Commit().ok());
    Txn tail = table.Begin();  // RID 30
    ASSERT_TRUE(table.Insert(tail, {500, 5, 50}).ok());
    ASSERT_TRUE(tail.Commit().ok());
    before = RowsOf(table);
  }
  ASSERT_EQ(before.size(), 31u);
  EXPECT_EQ(before[15], (std::vector<Value>{105, 1050, 10500}));
  for (size_t rid = 16; rid < 30; ++rid) EXPECT_TRUE(before[rid].empty());

  std::vector<Value> logged_keys;
  ASSERT_TRUE(RedoLog::Replay(path_, [&](const LogRecord& rec) {
                if (rec.type == LogRecordType::kInsertAppend) {
                  logged_keys.push_back(rec.values[0]);
                }
              }).ok());
  std::vector<Value> expected_keys;
  for (Value k = 0; k < 10; ++k) expected_keys.push_back(k);
  for (Value k = 100; k < 106; ++k) expected_keys.push_back(k);
  expected_keys.push_back(500);
  EXPECT_EQ(logged_keys, expected_keys);

  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  EXPECT_EQ(RowsOf(table), before);
  Txn again = table.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table.Read(again, 110, 0b111, &out).IsNotFound());
  ASSERT_TRUE(table.Insert(again, {110, 1, 1}).ok());
  ASSERT_TRUE(again.Commit().ok());
}

// A crash mid-way through writing a run frame leaves a torn tail: open
// cuts the log back to where that frame began, and numbering resumes
// after the last intact record.
TEST_F(RecoveryTest, TornRunFrameIsCutAtItsFrameStart) {
  const TxnId a = kTxnIdTag | 1, b = kTxnIdTag | 2;
  const std::vector<std::vector<Value>> rows = KeyRows(0, 32);
  uint64_t intact = 0, full = 0;
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path_, /*truncate=*/true).ok());
    RedoLog::Batch first;
    first.AddInsertRun(a, 0, 0, rows.data(), 20, 0b111);
    EXPECT_EQ(log.AppendBatch(first), 20u);
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = a;
    commit.commit_time = 5;
    EXPECT_EQ(log.Append(commit), 21u);
    ASSERT_TRUE(log.Flush(false).ok());
    intact = FileSize(path_);
    RedoLog::Batch second;
    second.AddInsertRun(b, 0, 20, rows.data() + 20, 12, 0b111);
    EXPECT_EQ(log.AppendBatch(second), 33u);
    ASSERT_TRUE(log.Flush(false).ok());
    full = FileSize(path_);
  }
  ASSERT_GT(full, intact + 5);
  ASSERT_EQ(::truncate(path_.c_str(), full - 5), 0);  // crc + last values
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path_, /*truncate=*/false).ok());
    EXPECT_EQ(FileSize(path_), intact);
    EXPECT_EQ(log.last_lsn(), 21u);
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = b;
    EXPECT_EQ(log.Append(abort), 22u);
  }
  RedoLog::ReplayStats stats;
  uint64_t records = 0;
  ASSERT_TRUE(RedoLog::Replay(
                  path_, [&](const LogRecord&, uint64_t) { ++records; },
                  &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(records, 22u);
  EXPECT_EQ(stats.last_lsn, 22u);

  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  EXPECT_EQ(RowsOf(table), KeyRows(0, 20));
}

// Two committed transactions that each insert key 7, into ranges 0
// and 1, make a log no run of the engine writes. Restart refuses it,
// instead of indexing one of the rows while scans count both, and
// appends nothing after it.
TEST_F(RecoveryTest, DuplicateLiveKeyIsCorruption) {
  const std::vector<std::vector<Value>> row = {{7, 70, 700}};
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path_, /*truncate=*/true).ok());
    for (uint64_t range = 0; range < 2; ++range) {
      const TxnId txn = kTxnIdTag | (range + 1);
      RedoLog::Batch batch;
      batch.AddInsertRun(txn, range, 0, row.data(), 1, 0b111);
      log.AppendBatch(batch);
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn_id = txn;
      commit.commit_time = 5 + range;
      log.Append(commit);
    }
    ASSERT_TRUE(log.Flush(false).ok());
  }
  const uint64_t size = FileSize(path_);
  Table table("t", Schema(3), LogConfig(path_));
  EXPECT_TRUE(table.RecoverFromLog().IsCorruption());
  Txn txn = table.Begin();
  ASSERT_TRUE(table.Insert(txn, {8, 80, 800}).ok());
  EXPECT_FALSE(txn.Commit().ok());
  EXPECT_EQ(FileSize(path_), size);
}

// One round of every logged write shape: insert runs across ranges,
// single-row inserts, an UpdateBatch, a delete, two aborted
// transactions, and a batch stopped at a duplicate key.
void MixedRound(Table* t, const std::function<Txn()>& begin, Value base) {
  {
    Txn txn = begin();
    ASSERT_TRUE(t->InsertBatch(txn, KeyRows(base, 45)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Txn txn = begin();
    for (Value k = 0; k < 3; ++k) {
      ASSERT_TRUE(t->Insert(txn, {base + 100 + k, k, k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Txn txn = begin();
    std::vector<Value> keys;
    std::vector<std::vector<Value>> rows;
    for (Value k = base; k < base + 40; k += 4) {
      keys.push_back(k);
      rows.push_back({0, 7000 + k, 0});
    }
    ASSERT_TRUE(t->UpdateBatch(txn, keys, 0b010, rows).ok());
    ASSERT_TRUE(t->Delete(txn, base + 1).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Txn txn = begin();
    ASSERT_TRUE(t->InsertBatch(txn, KeyRows(base + 200, 10)).ok());
    txn.Abort();
  }
  {
    Txn txn = begin();
    ASSERT_TRUE(t->Insert(txn, {base + 300, 3, 3}).ok());
    ASSERT_TRUE(t->Update(txn, base + 2, 0b100, {0, 0, 1}).ok());
    txn.Abort();
  }
  {
    Txn txn = begin();
    std::vector<std::vector<Value>> rows = KeyRows(base + 400, 8);
    rows[5][0] = base;
    EXPECT_TRUE(t->InsertBatch(txn, rows).IsAlreadyExists());
    ASSERT_TRUE(txn.Commit().ok());
  }
}

// The same mixed log replays to the same table whether recovery reads
// the whole log, or a checkpoint plus the log tail its truncation kept.
TEST_F(RecoveryTest, MixedLogReplaysAlikeFromLogAndFromCheckpoint) {
  std::vector<std::vector<Value>> live;
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    auto begin = [&table] { return table.Begin(); };
    MixedRound(&table, begin, 0);
    MixedRound(&table, begin, 10000);
    live = RowsOf(table);
  }
  ASSERT_FALSE(live.empty());
  {
    Table table("t", Schema(3), LogConfig(path_));
    ASSERT_TRUE(table.RecoverFromLog().ok());
    EXPECT_EQ(RowsOf(table), live);
  }

  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_mixed_checkpoint";
  std::filesystem::remove_all(dir);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), LogConfig("")).ok());
    Table* table = db->GetTable("t");
    auto begin = [&db] { return db->Begin(); };
    MixedRound(table, begin, 0);
    ASSERT_TRUE(db->Checkpoint().ok());
    MixedRound(table, begin, 10000);
    EXPECT_EQ(RowsOf(*table), live);
    // The checkpoint truncated the log: what is left starts past a
    // truncation point and holds the second round.
    RedoLog::ReplayStats stats;
    uint64_t records = 0;
    ASSERT_TRUE(RedoLog::Replay(
                    dir + "/t.log",
                    [&](const LogRecord&, uint64_t) { ++records; }, &stats)
                    .ok());
    EXPECT_GT(stats.base_lsn, 0u);
    EXPECT_GT(records, 45u);
    // Crash: the database dies with all in-memory state.
  }
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_NE(db->GetTable("t"), nullptr);
    EXPECT_EQ(RowsOf(*db->GetTable("t")), live);
  }
  std::filesystem::remove_all(dir);
}

// Replaying the WHOLE log (watermark 0) over a checkpoint that already
// holds its records, insert-merged into base segments, update-merged
// and compressed into the historic store, writes each of them again
// with its raw txn id; Range::Recover alone resolves them. The table
// must come back exactly as it was: rows, snapshot sums, time-travel
// reads and version chains.
TEST_F(RecoveryTest, ReplayOverCapturedAndCompressedRecordsIsIdempotent) {
  Table table("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  auto begin = [&table] { return table.Begin(); };
  std::vector<Timestamp> snapshots;
  // Insert runs, first updates with their pre-image snapshots, a
  // delete and aborted transactions; then second versions of a third
  // of the rows.
  MixedRound(&table, begin, 0);
  snapshots.push_back(table.Now());
  {
    Txn txn = table.Begin();
    for (Value k = 0; k < 45; k += 3) {
      ASSERT_TRUE(table.Update(txn, k, 0b110, {0, 500 + k, 600 + k}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  snapshots.push_back(table.Now());
  size_t compressed = 0;
  for (uint64_t id = 0; id < table.num_ranges(); ++id) {
    table.InsertMergeNow(id);
    table.MergeRangeNow(id);
    compressed += table.CompressHistoricNow(id);
  }
  ASSERT_GT(compressed, 0u);
  // A second round lands above the historic boundary; the last write
  // to each key MixedRound aborts an update of is a committed one.
  MixedRound(&table, begin, 10000);
  snapshots.push_back(table.Now());
  {
    Txn txn = table.Begin();
    ASSERT_TRUE(table.Update(txn, 2, 0b100, {0, 0, 22}).ok());
    ASSERT_TRUE(table.Update(txn, 10002, 0b100, {0, 0, 23}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  const std::string ckpt = path_ + ".ckpt";
  uint64_t checksum = 0;
  ASSERT_TRUE(CheckpointIO::WriteTable(table, ckpt, &checksum).ok());
  Table recovered("t", Schema(3), LogConfig(path_));
  ASSERT_TRUE(recovered.RecoverDurable(ckpt, /*log_watermark=*/0, checksum)
                  .ok());
  std::remove(ckpt.c_str());

  EXPECT_EQ(RowsOf(recovered), RowsOf(table));
  auto sums = [](const Table& t, Timestamp ts) {
    uint64_t a = 0, b = 0;
    EXPECT_TRUE(t.NewQuery().AsOf(ts).Sum(1, &a).ok());
    EXPECT_TRUE(t.NewQuery().AsOf(ts).Sum(2, &b).ok());
    return std::make_pair(a, b);
  };
  EXPECT_EQ(sums(recovered, recovered.Now()), sums(table, table.Now()));
  snapshots.push_back(table.Now());
  std::vector<Value> keys;
  for (Value base : {0, 10000}) {
    for (Value k = base; k < base + 500; ++k) keys.push_back(k);
  }
  for (Timestamp ts : snapshots) {
    EXPECT_EQ(sums(recovered, ts), sums(table, ts)) << ts;
    for (Value k : keys) {
      std::vector<Value> want, got;
      Status ws = table.ReadAsOf(k, ts, 0b111, &want);
      Status gs = recovered.ReadAsOf(k, ts, 0b111, &got);
      ASSERT_EQ(gs.ok(), ws.ok()) << k << " @" << ts;
      if (ws.ok()) {
        EXPECT_EQ(got, want) << k << " @" << ts;
      }
    }
  }
  auto chain = [](const Table& t, Value key, ColumnId col) {
    std::vector<std::tuple<uint32_t, Value, uint64_t, Value>> out;
    for (const Table::ChainEntry& e : t.DebugChain(key, col)) {
      out.emplace_back(e.seq, e.raw_start, e.schema_encoding, e.col_value);
    }
    return out;
  };
  size_t versions = 0;
  for (Value k : keys) {
    for (ColumnId col : {1u, 2u}) {
      EXPECT_EQ(chain(recovered, k, col), chain(table, k, col)) << k;
      versions += chain(table, k, col).size();
    }
  }
  EXPECT_GT(versions, 0u);
}

TEST(RecoveryOutcomeTest, AbortRecordAfterCommitRecordWins) {
  std::string path = TempLogPath("abort_after_commit");
  std::remove(path.c_str());
  const TxnId txn_id = kTxnIdTag | 77;
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());
    LogRecord ins;
    ins.type = LogRecordType::kInsertAppend;
    ins.txn_id = txn_id;
    ins.range_id = 0;
    ins.seq = 1;
    ins.base_slot = 0;
    ins.backptr = 0;
    ins.schema_encoding = 0;
    ins.start_raw = txn_id;
    ins.mask = 0b111;
    ins.values = {5, 50, 500};
    log.Append(ins);
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn_id;
    commit.commit_time = 99;
    log.Append(commit);
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = txn_id;
    log.Append(abort);
    ASSERT_TRUE(log.Flush(true).ok());
  }
  Table table("t", Schema(3), LogConfig(path));
  ASSERT_TRUE(table.RecoverFromLog().ok());
  Txn r = table.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(table.Read(r, 5, 0b111, &out).IsNotFound());
  std::remove(path.c_str());
}

// A log that cannot be opened fails recovery, and the table then
// refuses commits instead of acknowledging writes it never logged.
TEST(RecoveryOutcomeTest, UnopenableLogRefusesCommits) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_missing_log_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/t.log";
  Table table("t", Schema(3), LogConfig(path));
  EXPECT_FALSE(table.RecoverFromLog().ok());
  Txn txn = table.Begin();
  ASSERT_TRUE(table.Insert(txn, {1, 2, 3}).ok());
  EXPECT_FALSE(txn.Commit().ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --- truncation under load -------------------------------------------------

// Commits proceed while TruncateTo rewrites the log: the mutex-held
// window is O(appends since the scan), so appends interleave with the
// rewrite and every record beyond the watermark must survive with its
// LSN intact.
TEST(RedoLogTruncateTest, CommitsConcurrentWithTruncation) {
  std::string path = TempLogPath("concurrent_truncate");
  std::remove(path.c_str());
  RedoLog log;
  ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::thread committer([&] {
    while (!stop.load()) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.txn_id = kTxnIdTag | (appended.load() + 1);
      rec.commit_time = appended.load() + 1;
      log.Append(rec);
      ASSERT_TRUE(log.Flush(false).ok());
      appended.fetch_add(1);
    }
  });

  // Interleave several truncations with the append stream.
  uint64_t last_watermark = 0;
  for (int i = 0; i < 20; ++i) {
    while (appended.load() < static_cast<uint64_t>(i + 1) * 20) {
      std::this_thread::yield();
    }
    last_watermark = log.last_lsn() / 2;
    ASSERT_TRUE(log.TruncateTo(last_watermark).ok());
  }
  stop = true;
  committer.join();
  ASSERT_TRUE(log.Flush(false).ok());
  uint64_t total = appended.load();
  log.Close();

  // Replay: LSNs are contiguous from the final truncation point and
  // every record beyond it survived (commit_time encodes the append
  // index, so continuity proves no loss and no duplication).
  uint64_t prev_lsn = 0, first_lsn = 0, records = 0;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    if (records == 0) {
                      first_lsn = lsn;
                    } else {
                      EXPECT_EQ(lsn, prev_lsn + 1);
                    }
                    EXPECT_EQ(rec.commit_time, lsn);  // append i == LSN i
                    prev_lsn = lsn;
                    ++records;
                  },
                  &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_GT(records, 0u);
  EXPECT_GT(first_lsn, last_watermark);  // prefix actually dropped
  EXPECT_EQ(prev_lsn, total);            // tail fully retained
}

// A batch frame straddling the watermark is retained whole; the
// truncation point's base LSN backs up so the numbering of the
// surviving records does not shift.
TEST(RedoLogTruncateTest, BatchFrameStraddlingWatermarkKeepsLsns) {
  std::string path = TempLogPath("batch_straddle");
  std::remove(path.c_str());
  RedoLog log;
  ASSERT_TRUE(log.Open(path, /*truncate=*/true).ok());
  std::vector<LogRecord> batch;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = kTxnIdTag | (i + 1);
    rec.commit_time = i + 1;  // record i+1 carries its own LSN
    batch.push_back(rec);
  }
  EXPECT_EQ(log.AppendBatch(batch), 10u);
  ASSERT_TRUE(log.Flush(false).ok());
  // Watermark falls INSIDE the batch: the whole frame must survive.
  ASSERT_TRUE(log.TruncateTo(5).ok());
  log.Close();
  uint64_t records = 0;
  std::vector<uint64_t> lsns;
  ASSERT_TRUE(RedoLog::Replay(
                  path,
                  [&](const LogRecord& rec, uint64_t lsn) {
                    EXPECT_EQ(rec.commit_time, lsn);  // numbering unshifted
                    lsns.push_back(lsn);
                    ++records;
                  },
                  nullptr)
                  .ok());
  EXPECT_EQ(records, 10u);  // retained whole; replay filters by LSN
  EXPECT_EQ(lsns.front(), 1u);
  EXPECT_EQ(lsns.back(), 10u);
}

// A redo log whose record with LSN n carries range id n, tracking the
// first LSN and end offset of every frame, so a test knows which
// records a truncation keeps (the whole frame holding watermark + 1)
// and where the truncation marks fall. Every frame is flushed as it is
// appended, so the file size is the log's length.
class NumberedLog {
 public:
  explicit NumberedLog(const std::string& path) : path_(path) {
    std::remove(path.c_str());
    FramedLogMetrics m;
    m.truncate_read_bytes = &read_bytes_;
    log_.set_metrics(m);
    EXPECT_TRUE(log_.Open(path, /*truncate=*/true).ok());
  }
  ~NumberedLog() {
    log_.Close();
    std::remove(path_.c_str());
  }

  RedoLog& log() { return log_; }
  uint64_t appended() const { return appended_; }
  uint64_t read_bytes() const { return read_bytes_.value(); }

  void AppendSingle(int width) {
    EXPECT_EQ(log_.Append(Record(appended_ + 1, width)), appended_ + 1);
    Appended(1);
  }

  void AppendBatch(uint64_t n, int width) {
    RedoLog::Batch batch;
    for (uint64_t i = 1; i <= n; ++i) batch.Add(Record(appended_ + i, width));
    EXPECT_EQ(log_.AppendBatch(batch), appended_ + n);
    Appended(n);
  }

  /// First LSN kept by a truncation at `watermark` of the untruncated
  /// log: the first LSN of the frame holding watermark + 1.
  uint64_t KeptFrom(uint64_t watermark) const {
    if (watermark >= appended_) return appended_ + 1;
    auto it = std::upper_bound(frame_first_.begin(), frame_first_.end(),
                               watermark + 1);
    return *std::prev(it);
  }

  /// The marks of the untruncated log as {offset, LSN}: one at each
  /// frame end where kMarkSpacing bytes were appended since the last.
  std::vector<std::pair<uint64_t, uint64_t>> Marks() const {
    std::vector<std::pair<uint64_t, uint64_t>> marks;
    uint64_t prev = 0;
    for (size_t i = 0; i < frame_end_.size(); ++i) {
      if (frame_end_[i] - prev < FramedLog::kMarkSpacing) continue;
      uint64_t last = i + 1 < frame_first_.size() ? frame_first_[i + 1] - 1
                                                  : appended_;
      marks.emplace_back(frame_end_[i], last);
      prev = frame_end_[i];
    }
    return marks;
  }

  /// Replay holds exactly the records [first, appended()], in order,
  /// each carrying its own LSN.
  void ExpectReplays(uint64_t first) {
    ASSERT_TRUE(log_.Flush(false).ok());
    uint64_t next = first;
    RedoLog::ReplayStats stats;
    ASSERT_TRUE(RedoLog::Replay(
                    path_,
                    [&](const LogRecord& rec, uint64_t lsn) {
                      ASSERT_EQ(lsn, next);
                      ASSERT_EQ(rec.range_id, lsn);
                      ++next;
                    },
                    &stats)
                    .ok());
    EXPECT_TRUE(stats.clean_end);
    EXPECT_EQ(next, appended_ + 1);
  }

 private:
  static RedoLog::AppendWriter Record(uint64_t lsn, int width) {
    ColumnMask mask = (1ull << width) - 1;
    RedoLog::AppendWriter w(LogRecordType::kTailAppend, kTxnIdTag | lsn,
                            /*range_id=*/lsn, /*seq=*/1, /*base_slot=*/0,
                            /*backptr=*/0, mask, /*start_raw=*/lsn, mask);
    for (int c = 0; c < width; ++c) w.AddValue(lsn * 1000 + c);
    return w;
  }

  void Appended(uint64_t n) {
    frame_first_.push_back(appended_ + 1);
    appended_ += n;
    EXPECT_TRUE(log_.Flush(false).ok());
    frame_end_.push_back(FileSize(path_));
  }

  std::string path_;
  Counter read_bytes_;
  RedoLog log_;
  uint64_t appended_ = 0;
  std::vector<uint64_t> frame_first_;  ///< first LSN of each frame
  std::vector<uint64_t> frame_end_;    ///< end offset of each frame
};

// A multi-MB log of mixed single and batch frames, truncated at random
// watermarks (some below the previous cut) with reopens in between,
// which re-seed the marks from the file: replay stays LSN-continuous
// up to the append counter, and every truncation reads the retained
// tail plus less than one mark spacing.
TEST(RedoLogTruncateTest, RandomWatermarksAcrossReopens) {
  std::string path = TempLogPath("random_truncate");
  NumberedLog nl(path);
  std::mt19937_64 rng(14);
  uint64_t kept_from = 1;
  for (int round = 0; round < 8; ++round) {
    for (int f = 0; f < 3000; ++f) {
      int width = static_cast<int>(rng() % 13);
      if (rng() % 4 == 0) {
        nl.AppendBatch(1 + rng() % 40, width);
      } else {
        nl.AppendSingle(width);
      }
    }
    uint64_t watermark =
        round % 3 == 2
            ? rng() % kept_from
            : kept_from - 1 + rng() % (nl.appended() - kept_from + 2);
    uint64_t before = nl.read_bytes();
    ASSERT_TRUE(nl.log().TruncateTo(watermark).ok());
    kept_from = std::max(kept_from, nl.KeptFrom(watermark));
    EXPECT_LT(nl.read_bytes() - before,
              FramedLog::kMarkSpacing + FileSize(path));
    nl.ExpectReplays(kept_from);
    if (round % 2 == 1) {
      nl.log().Close();
      ASSERT_TRUE(nl.log().Open(path, /*truncate=*/false).ok());
      EXPECT_EQ(nl.log().last_lsn(), nl.appended());
    }
  }
  EXPECT_GT(nl.appended(), 100000u);  // several MB went through the log
}

// Watermarks at the edges of the mark index. The log holds singles up
// to just below the first kMarkSpacing boundary, batch A across it (so
// the first mark falls at A's end), batch B starting at that mark, and
// singles past a second mark. Each truncation reads exactly
// [last mark at or below the watermark, end); a second truncation then
// runs on the rebased marks.
TEST(RedoLogTruncateTest, WatermarksAtMarkEdges) {
  std::string path = TempLogPath("mark_edges");
  uint64_t a_first = 0, b_first = 0;
  auto build = [&](NumberedLog* nl) {
    while (FileSize(path) < FramedLog::kMarkSpacing - 2000) {
      nl->AppendSingle(8);
    }
    a_first = nl->appended() + 1;
    nl->AppendBatch(100, 8);
    b_first = nl->appended() + 1;
    nl->AppendBatch(100, 8);
    while (FileSize(path) < 2 * FramedLog::kMarkSpacing + 5000) {
      nl->AppendSingle(8);
    }
  };
  std::vector<std::pair<uint64_t, uint64_t>> marks;
  uint64_t last = 0;
  {
    NumberedLog probe(path);
    build(&probe);
    marks = probe.Marks();
    last = probe.appended();
  }
  ASSERT_GE(marks.size(), 2u);
  ASSERT_EQ(marks[0].second, b_first - 1);  // batch A ends at mark 0
  struct Case {
    const char* name;
    uint64_t watermark;
  };
  const Case cases[] = {
      {"before the first mark", 10},
      {"inside batch A, across the first boundary", a_first + 50},
      {"inside batch B, right after mark 0", b_first + 50},
      {"exactly at mark 1", marks[1].second},
      {"at last_lsn", last},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NumberedLog nl(path);
    build(&nl);
    uint64_t size = FileSize(path);
    uint64_t from = 0;
    for (const auto& [offset, lsn] : nl.Marks()) {
      if (lsn <= c.watermark) from = offset;
    }
    ASSERT_TRUE(nl.log().TruncateTo(c.watermark).ok());
    EXPECT_EQ(nl.read_bytes(), size - from);
    nl.ExpectReplays(nl.KeptFrom(c.watermark));
    if (c.watermark == last) {
      // Nothing is retained: less than one mark spacing is read.
      EXPECT_LT(nl.read_bytes(), FramedLog::kMarkSpacing);
    }
    // Appends continue past the cut, and a second truncation runs on
    // the rebased marks.
    nl.AppendSingle(8);
    uint64_t second = nl.appended() - 5;
    uint64_t before = nl.read_bytes();
    ASSERT_TRUE(nl.log().TruncateTo(second).ok());
    EXPECT_LT(nl.read_bytes() - before,
              FramedLog::kMarkSpacing + FileSize(path));
    nl.ExpectReplays(std::max(nl.KeptFrom(c.watermark), nl.KeptFrom(second)));
  }
}

// With a seal sink (archiving), the retired prefix handed over equals
// a reference built from a full scan of the pre-truncation file: a
// truncation point before the first retired LSN, then every retired
// frame.
TEST(RedoLogTruncateTest, SealedPrefixMatchesFullScanReference) {
  std::string path = TempLogPath("seal_reference");
  NumberedLog nl(path);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int f = 0; f < 2000; ++f) {
      if (rng() % 4 == 0) {
        nl.AppendBatch(1 + rng() % 20, 6);
      } else {
        nl.AppendSingle(6);
      }
    }
    uint64_t watermark = nl.appended() - 1000;
    std::string before = ReadWholeFile(path);
    uint64_t first = 0, hi = 0;
    size_t cut = 0;
    FramedLog::ScanStats stats;
    FramedLog::ScanFrames(
        before, &RedoLog::ValidatePayload,
        [&](std::string_view, uint64_t first_lsn, uint64_t count,
            size_t begin, size_t) {
          if (first == 0) first = first_lsn;
          if (cut == 0 && first_lsn + count - 1 > watermark) {
            cut = begin;
            hi = first_lsn - 1;
          }
        },
        &stats);
    ASSERT_GT(cut, 0u);
    std::string expected = FramedLog::TruncationPointFrame(first - 1);
    expected.append(before, 0, cut);

    std::string sealed;
    uint64_t seal_lo = 0, seal_hi = 0;
    FramedLog::SealSink sink = [&](uint64_t lo, uint64_t hi_lsn,
                                   std::string_view bytes) {
      seal_lo = lo;
      seal_hi = hi_lsn;
      sealed.assign(bytes);
      return Status::OK();
    };
    ASSERT_TRUE(nl.log().TruncateTo(watermark, sink).ok());
    EXPECT_EQ(seal_lo, first);
    EXPECT_EQ(seal_hi, hi);
    EXPECT_EQ(sealed, expected);
    nl.ExpectReplays(hi + 1);
    nl.log().Close();
    ASSERT_TRUE(nl.log().Open(path, /*truncate=*/false).ok());
  }
}

// A directory fsync that cannot run is the truncation's result, not
// silently skipped. The directory is made unreadable: the rename still
// works, opening the directory for its fsync does not. The handle
// still moves to the truncated log, so appends that follow survive.
// Skips where directory permissions are not enforced (root).
TEST(RedoLogTruncateTest, FailedDirectorySyncIsReported) {
  std::string dir = std::string(::testing::TempDir()) + "lstore_dir_sync";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0700) == 0 || errno == EEXIST);
  {
    NumberedLog nl(dir + "/t.log");
    for (int i = 0; i < 10; ++i) nl.AppendSingle(2);
    ASSERT_EQ(::chmod(dir.c_str(), 0300), 0);  // write + search, no read
    int probe = ::open(dir.c_str(), O_RDONLY);
    Status s = probe < 0 ? nl.log().TruncateTo(4) : Status::OK();
    if (probe >= 0) ::close(probe);
    ASSERT_EQ(::chmod(dir.c_str(), 0700), 0);
    if (probe >= 0) GTEST_SKIP() << "directory permissions not enforced";
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    nl.AppendSingle(2);
    nl.ExpectReplays(5);
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace lstore
