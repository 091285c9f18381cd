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
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.h"
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
// in the redo format fails loudly. Frame: [len 63][kBatch 06][count 02]
// then per row [entry len][kInsertAppend 02][txn id][range 00][seq]
// [base slot][backptr 00][schema encoding 00][start raw = txn id]
// [mask 03][one value per column], then the fnv1a32 of the payload.
// The first transaction's id is kTxnIdTag | 1, a 10-byte varint.
TEST(RedoLogTest, InsertBatchFrameGoldenBytes) {
  std::string path = TempLogPath("golden_batch");
  std::remove(path.c_str());
  {
    Table table("g", Schema(2), LogConfig(path));
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
            "3f0602"
            "1e02" "81808080808080808001" "00" "01" "00" "00" "00"
            "81808080808080808001" "03" "01" "ac02"
            "1d02" "81808080808080808001" "00" "02" "01" "00" "00"
            "81808080808080808001" "03" "02" "05"
            "6ca118fc");
  std::remove(path.c_str());
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
