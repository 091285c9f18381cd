// Durability subsystem tests (Section 5.1.3): lineage-consistent
// checkpoints, redo-log LSNs + rolls, full restart recovery
// through Database::Open, and fault injection (torn log tails, bit
// flips in checkpointed pages, the crash states around a checkpoint's
// roll and retirement, broken segment chains).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_manager.h"
#include "checkpoint/serde.h"
#include "core/database.h"
#include "core/query.h"
#include "core/table.h"
#include "log/redo_log.h"
#include "storage/compressed_column.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  /// Restart a durable directory whose log holds only `rec`: the
  /// directory's one table "t" (Schema(2), `cfg`, catalog id 0) is
  /// created and closed, the crafted record is the log's one record,
  /// and the reopen's status is returned.
  Status OpenOverCraftedLog(const TableConfig& cfg, const LogRecord& rec) {
    std::filesystem::remove_all(dir_);
    std::unique_ptr<Database> db;
    LSTORE_RETURN_IF_ERROR(Database::Open(dir_, &db));
    LSTORE_RETURN_IF_ERROR(db->CreateTable("t", Schema(2), cfg));
    db.reset();
    RedoLog log;
    LSTORE_RETURN_IF_ERROR(log.Open(dir_));
    log.Append(rec);
    LSTORE_RETURN_IF_ERROR(log.Flush(false));
    log.Close();
    return Database::Open(dir_, &db);
  }

  /// Write a checkpoint of a Schema(2) SmallConfig() table with
  /// `range_size`: its header (claiming `nranges` ranges and
  /// `next_row`), `frames`, and a footer counting their range-state
  /// frames. Then restore it into a fresh table, kept in `restored`
  /// when given.
  Status LoadCrafted(uint64_t nranges,
                     const std::vector<std::pair<FrameType, std::string>>&
                         frames,
                     uint32_t range_size = SmallConfig().range_size,
                     uint64_t next_row = 0,
                     std::unique_ptr<Table>* restored = nullptr) {
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/crafted.ckpt";
    {
      File file;
      EXPECT_TRUE(file.Open(path, File::Mode::kCreateTruncate).ok());
      FrameWriter w(&file, kCheckpointMagic);
      std::string p;
      PutString(&p, "t");
      PutVarint64(&p, 2);
      PutString(&p, "c0");
      PutString(&p, "c1");
      PutVarint64(&p, range_size);
      PutVarint64(&p, next_row);
      PutVarint64(&p, nranges);
      EXPECT_TRUE(w.WriteFrame(FrameType::kTableHeader, p).ok());
      uint64_t ranges = 0;
      for (const auto& [type, payload] : frames) {
        EXPECT_TRUE(w.WriteFrame(type, payload).ok());
        if (type == FrameType::kRangeState) ++ranges;
      }
      std::string footer;
      PutVarint64(&footer, ranges);
      EXPECT_TRUE(w.WriteFrame(FrameType::kTableFooter, footer).ok());
      EXPECT_TRUE(w.Finish().ok());
    }
    TableConfig cfg = SmallConfig();
    cfg.range_size = range_size;
    auto t = std::make_unique<Table>("t", Schema(2), cfg);
    Status s = CheckpointIO::LoadTable(t.get(), path);
    if (restored != nullptr) *restored = std::move(t);
    return s;
  }

  /// Varint fields, concatenated: a frame payload.
  static std::string Fields(std::initializer_list<uint64_t> fields) {
    std::string p;
    for (uint64_t f : fields) PutVarint64(&p, f);
    return p;
  }
  /// A kRangeState frame: id, occupied, based, tps, boundary, last.
  static std::pair<FrameType, std::string> RangeState(uint64_t id,
                                                      uint64_t occupied) {
    return {FrameType::kRangeState, Fields({id, occupied, 0, 0, 0, 0})};
  }
  /// A kUpdateRecords frame of range 0 holding one record: seq, start,
  /// backptr, base slot, encoding, then one value per encoded column.
  static std::pair<FrameType, std::string> Updates(
      std::initializer_list<uint64_t> record) {
    std::string p = Fields({0, 1});
    for (uint64_t f : record) PutVarint64(&p, f);
    return {FrameType::kUpdateRecords, p};
  }
  /// A kBaseSegment frame of range `id`, column 1, claiming `num_slots`
  /// slots, carrying a serialized column of `vals`.
  static std::pair<FrameType, std::string> Segment(
      uint64_t id, uint64_t num_slots, std::vector<Value> vals) {
    std::string p = Fields({id, 1, 0, num_slots});
    CompressedColumn::Build(std::move(vals))->AppendTo(&p);
    return {FrameType::kBaseSegment, p};
  }

  static uint64_t LogFileBytes(const std::string& path) {
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
  }

  /// The segments of the log in `dir` (default: the test's directory).
  std::vector<FramedLog::Segment> Segments(const std::string& dir = {}) const {
    std::vector<FramedLog::Segment> segments;
    EXPECT_TRUE(
        FramedLog::ListSegments(dir.empty() ? dir_ : dir, &segments).ok());
    return segments;
  }

  /// The newest segment of the database's log: the file it appends to.
  std::string LogFile() const {
    const std::vector<FramedLog::Segment> segments = Segments();
    return segments.empty() ? dir_ : segments.back().path;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// RedoLog: LSNs, rolls, tail repair
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, LogAssignsLsnsAcrossRolls) {
  std::filesystem::create_directories(dir_);
  auto commit = [](int i) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = kTxnIdTag | (10 + i);
    rec.commit_time = 10 + i;
    return rec;
  };
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(dir_).ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(log.Append(commit(i)), static_cast<uint64_t>(i + 1));
    }
    uint64_t watermark = 0;
    ASSERT_TRUE(log.Roll(&watermark).ok());
    EXPECT_EQ(watermark, 4u);
    for (int i = 4; i < 6; ++i) log.Append(commit(i));
    ASSERT_TRUE(log.Flush(false).ok());
    EXPECT_EQ(log.last_lsn(), 6u);
    // Retiring the closed segment leaves the LSNs of the open one.
    std::vector<FramedLog::Segment> retired;
    ASSERT_TRUE(FramedLog::RetiredSegments(dir_, watermark, &retired).ok());
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(retired[0].lo, 1u);
    EXPECT_EQ(retired[0].hi, 4u);
    ASSERT_EQ(std::remove(retired[0].path.c_str()), 0);
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = kTxnIdTag | 99;
    EXPECT_EQ(log.Append(rec), 7u);
    ASSERT_TRUE(log.Flush(false).ok());
  }
  std::vector<uint64_t> lsns;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  dir_,
                  [&](const LogRecord&, uint64_t lsn) { lsns.push_back(lsn); },
                  &stats)
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_EQ(stats.last_lsn, 7u);
  EXPECT_TRUE(stats.clean_end);
  // Reopened past the retired LSNs, the log resumes after its last
  // record; from LSN 0 it misses them, and refuses to open.
  RedoLog log;
  EXPECT_TRUE(log.Open(dir_).IsCorruption());
  ASSERT_TRUE(log.Open(dir_, /*watermark=*/4).ok());
  EXPECT_EQ(log.last_lsn(), 7u);
}

TEST_F(CheckpointTest, LogOpenRestoresLsnAndRepairsTornTail) {
  std::filesystem::create_directories(dir_);
  const std::string path = FramedLog::SegmentPath(dir_, 1);
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(dir_).ok());
    for (int i = 0; i < 3; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.txn_id = kTxnIdTag | (10 + i);
      rec.commit_time = 10 + i;
      log.Append(rec);
    }
    ASSERT_TRUE(log.Flush(false).ok());
  }
  // Crash mid-write: chop the final frame.
  ASSERT_EQ(0, ::truncate(path.c_str(), LogFileBytes(path) - 2));
  {
    RedoLog log;
    ASSERT_TRUE(log.Open(dir_).ok());
    EXPECT_EQ(log.last_lsn(), 2u);  // torn record discarded
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = kTxnIdTag | 50;
    EXPECT_EQ(log.Append(rec), 3u);
    ASSERT_TRUE(log.Flush(false).ok());
  }
  // The repaired log replays cleanly: 2 old records + the new one.
  int count = 0;
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  dir_, [&](const LogRecord&, uint64_t) { ++count; }, &stats)
                  .ok());
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(stats.clean_end);
}

// ---------------------------------------------------------------------------
// Restore bounds: CRC-valid frames that name impossible ranges or slots
// ---------------------------------------------------------------------------

/// Range ids the table's directory holds (1024 chunks of 4096 ranges).
constexpr uint64_t kDirectoryRanges = 4096ull * 1024;

TEST_F(CheckpointTest, CraftedCheckpointWithinBoundsLoads) {
  // The control for the cases below: the same frames, in bounds.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 3), Segment(0, 3, {7, 8, 9}),
                              Updates({1, 5, 0, 2, 0b10, 7})})
                  .ok());
}

TEST_F(CheckpointTest, CraftedRangeIdPastDirectoryOrHeaderIsCorruption) {
  // Past the 4096-chunk directory, whether or not the header claims it.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(kDirectoryRanges, 1)})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(kDirectoryRanges + 1,
                          {RangeState(kDirectoryRanges, 1)})
                  .IsCorruption());
  // In the directory, but past the header's range count.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(1, 1)}).IsCorruption());
  // Every range-addressed frame kind checks its id.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              Segment(kDirectoryRanges, 1, {5})})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              {FrameType::kUpdateRecords,
                               Fields({kDirectoryRanges, 0})}})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              {FrameType::kInsertRecords,
                               Fields({kDirectoryRanges, 0, 0})}})
                  .IsCorruption());
}

TEST_F(CheckpointTest, CraftedSlotPastRangeSizeIsCorruption) {
  const uint64_t range_size = SmallConfig().range_size;
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, range_size + 1)}).IsCorruption());
  // Insert records at [first slot, first slot + count).
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              {FrameType::kInsertRecords,
                               Fields({0, range_size, 1, 0, 0, 0})}})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              {FrameType::kInsertRecords,
                               Fields({0, 1, ~0ull, 0, 0, 0})}})
                  .IsCorruption());
  // An update record of a base slot past the range.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              Updates({1, 5, 0, range_size, 0b10, 7})})
                  .IsCorruption());
}

TEST_F(CheckpointTest, CraftedSegmentSlotCountPastRangeSizeIsCorruption) {
  // Refused before anything is sized from the count.
  const uint64_t range_size = SmallConfig().range_size;
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1), Segment(0, 1ull << 40, {5})})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              Segment(0, range_size + 1,
                                      std::vector<Value>(range_size + 1, 5))})
                  .IsCorruption());
  // A segment whose column disagrees with its slot count.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 3), Segment(0, 3, {1, 2})})
                  .IsCorruption());
  // A by-reference segment is checked the same way.
  std::string ref = Fields({0, 1, 0, 1ull << 40, 0, 16, 0});
  CompressedColumn::PutHeader(&ref, CompressedColumn::Header{});
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1),
                              {FrameType::kBaseSegmentRef, ref}})
                  .IsCorruption());
}

TEST_F(CheckpointTest, CraftedTailSeqPastLimitIsCorruption) {
  // A range state whose last tail seq is past kMaxTailSeq.
  EXPECT_TRUE(LoadCrafted(1, {{FrameType::kRangeState,
                               Fields({0, 1, 0, 0, 0, kMaxTailSeq + 1ull})}})
                  .IsCorruption());
  // Update records of seq 0 and with a backpointer not below the seq.
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1), Updates({0, 5, 0, 0, 0b10, 7})})
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(1, {RangeState(0, 1), Updates({1, 5, 1, 0, 0b10, 7})})
                  .IsCorruption());
}

TEST_F(CheckpointTest, RedoRecordPastDirectoryOrRangeIsCorruption) {
  const uint32_t range_size = SmallConfig().range_size;
  struct Crafted {
    LogRecordType type;
    uint64_t range;
    uint32_t seq, slot, backptr;
  };
  constexpr LogRecordType kInsert = LogRecordType::kInsertAppend;
  constexpr LogRecordType kUpdate = LogRecordType::kTailAppend;
  for (const Crafted& c : std::vector<Crafted>{
           {kInsert, kDirectoryRanges, 1, 0, 0},       // past the directory
           {kInsert, 0, range_size + 1, range_size, 0},  // past the range
           {kInsert, 0, 5, 0, 0},                    // seq != slot + 1
           {kUpdate, 0, 1, 0, 1},                    // backptr == seq
           {kUpdate, 0, 3, 0, 4},                    // backptr past seq
           {kUpdate, 0, 0, 0, 0},                    // seq 0
           {kUpdate, 0, kMaxTailSeq + 2, 0, 0},      // past kMaxTailSeq
           {kUpdate, 0, 1, range_size, 0}}) {        // slot past the range
    LogRecord rec;
    rec.type = c.type;
    rec.txn_id = kTxnIdTag | 7;
    rec.range_id = c.range;
    rec.seq = c.seq;
    rec.base_slot = c.slot;
    rec.backptr = c.backptr;
    rec.schema_encoding = c.type == kInsert ? 0 : 0b10;
    rec.start_raw = rec.txn_id;
    rec.mask = c.type == kInsert ? 0b11 : 0b10;
    rec.values = c.type == kInsert ? std::vector<Value>{1, 2}
                                   : std::vector<Value>{5};
    Status s = OpenOverCraftedLog(SmallConfig(), rec);
    EXPECT_TRUE(s.IsCorruption()) << c.range << "/" << c.seq << "/" << c.slot
                                  << "/" << c.backptr << ": " << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Row cap: primary-index slots hold RIDs up to PrimaryIndex::kMaxRid
// ---------------------------------------------------------------------------

/// With 65536-row ranges, the rows of range 65,535 would pass kMaxRid,
/// so the table's directory stops below it, well inside its 4096-chunk
/// capacity.
constexpr uint32_t kWideRangeSize = 65536;
constexpr uint64_t kWideRanges = 65535;
constexpr Rid kLastRid = kWideRanges * kWideRangeSize - 1;
static_assert(kLastRid <= PrimaryIndex::kMaxRid &&
              kLastRid + kWideRangeSize > PrimaryIndex::kMaxRid);
static_assert(kWideRanges < kDirectoryRanges);

TEST_F(CheckpointTest, CraftedRangeIdPastRowCapIsCorruption) {
  // The last range below the cap restores.
  EXPECT_TRUE(LoadCrafted(kWideRanges, {RangeState(kWideRanges - 1, 1)},
                          kWideRangeSize)
                  .ok());
  // The next one does not, nor does a header claiming it.
  EXPECT_TRUE(LoadCrafted(kWideRanges, {RangeState(kWideRanges, 1)},
                          kWideRangeSize)
                  .IsCorruption());
  EXPECT_TRUE(LoadCrafted(kWideRanges + 1, {RangeState(kWideRanges, 1)},
                          kWideRangeSize)
                  .IsCorruption());
}

TEST_F(CheckpointTest, RedoRecordPastRowCapIsCorruption) {
  LogRecord rec;
  rec.type = LogRecordType::kInsertAppend;
  rec.txn_id = kTxnIdTag | 7;
  rec.range_id = kWideRanges;
  rec.seq = 1;
  rec.base_slot = 0;
  rec.mask = 0b11;
  rec.values = {1, 2};
  TableConfig cfg = SmallConfig();
  cfg.range_size = kWideRangeSize;
  Status s = OpenOverCraftedLog(cfg, rec);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(CheckpointTest, InsertsStopAtTheLastRid) {
  std::unique_ptr<Table> t;
  ASSERT_TRUE(LoadCrafted(0, {}, kWideRangeSize, kLastRid, &t).ok());
  Txn txn = t->Begin();
  ASSERT_TRUE(t->Insert(txn, {1, 10}).ok());
  EXPECT_EQ(t->primary_index().Get(1), kLastRid);
  const size_t indexed = t->primary_index().size();
  EXPECT_TRUE(t->Insert(txn, {2, 20}).IsBusy());
  EXPECT_TRUE(t->InsertBatch(txn, {{3, 30}, {4, 40}}).IsBusy());
  EXPECT_EQ(t->primary_index().size(), indexed);
  ASSERT_TRUE(txn.Commit().ok());
  Txn reader = t->Begin();
  std::vector<Value> row;
  ASSERT_TRUE(t->Read(reader, 1, 0b11, &row).ok());
  EXPECT_EQ(row, (std::vector<Value>{1, 10}));
}

// ---------------------------------------------------------------------------
// Round-trip durability (the acceptance scenario)
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, RoundTripAcrossTwoTablesWithTimeTravel) {
  Timestamp before_update = 0, after_update = 0;
  uint64_t watermark = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("accounts", Schema(3), SmallConfig()).ok());
    ASSERT_TRUE(db->CreateTable("orders", Schema(4), SmallConfig()).ok());
    Table* accounts = db->GetTable("accounts");
    Table* orders = db->GetTable("orders");

    Txn load = db->Begin();
    for (Value k = 0; k < 50; ++k) {
      ASSERT_TRUE(accounts->Insert(load, {k, 1000 + k, 7}).ok());
      ASSERT_TRUE(orders->Insert(load, {k, k * 2, k * 3, 1}).ok());
    }
    ASSERT_TRUE(load.Commit().ok());

    before_update = db->Now();
    Txn mut = db->Begin();
    for (Value k = 0; k < 50; k += 5) {
      ASSERT_TRUE(accounts->Update(mut, k, 0b010, {0, 2000 + k, 0}).ok());
    }
    ASSERT_TRUE(orders->Update(mut, 10, 0b0100, {0, 0, 777, 0}).ok());
    ASSERT_TRUE(mut.Commit().ok());
    after_update = db->Now();

    Txn del = db->Begin();
    ASSERT_TRUE(accounts->Delete(del, 49).ok());
    ASSERT_TRUE(orders->Delete(del, 48).ok());
    ASSERT_TRUE(del.Commit().ok());

    ASSERT_TRUE(db->Checkpoint().ok());
    // The redo log rolled at the checkpoint watermark and its closed
    // segment is gone: nothing is left to replay.
    int replayed = 0;
    ASSERT_TRUE(RedoLog::Replay(
                    dir_, [&](const LogRecord&, uint64_t) { ++replayed; },
                    nullptr)
                    .ok());
    EXPECT_EQ(replayed, 0);
    const std::vector<FramedLog::Segment> segments = Segments();
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_GT(segments[0].lo, 1u);
    watermark = segments[0].lo - 1;
    // Crash: the database object dies with all in-memory state.
  }

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  ASSERT_EQ(db->TableNames().size(), 2u);
  Table* accounts = db->GetTable("accounts");
  Table* orders = db->GetTable("orders");
  ASSERT_NE(accounts, nullptr);
  ASSERT_NE(orders, nullptr);

  Txn r = db->Begin();
  std::vector<Value> out;
  for (Value k = 0; k < 48; ++k) {
    ASSERT_TRUE(accounts->Read(r, k, 0b111, &out).ok()) << k;
    Value expect_balance = (k % 5 == 0) ? 2000 + k : 1000 + k;
    EXPECT_EQ(out[1], expect_balance) << k;
    EXPECT_EQ(out[2], 7u) << k;
    ASSERT_TRUE(orders->Read(r, k, 0b1111, &out).ok()) << k;
    EXPECT_EQ(out[2], k == 10 ? 777 : k * 3) << k;
  }
  // Deletes survived.
  EXPECT_TRUE(accounts->Read(r, 49, 0b111, &out).IsNotFound());
  EXPECT_TRUE(orders->Read(r, 48, 0b1111, &out).IsNotFound());
  (void)r.Commit();

  // Historic versions remain readable under time travel.
  ASSERT_TRUE(accounts->ReadAsOf(10, before_update, 0b010, &out).ok());
  EXPECT_EQ(out[1], 1010u);
  ASSERT_TRUE(accounts->ReadAsOf(10, after_update, 0b010, &out).ok());
  EXPECT_EQ(out[1], 2010u);
  ASSERT_TRUE(accounts->ReadAsOf(49, after_update, 0b010, &out).ok());
  EXPECT_EQ(out[1], 1049u);  // deleted later, alive at this snapshot
  ASSERT_TRUE(orders->ReadAsOf(10, before_update, 0b0100, &out).ok());
  EXPECT_EQ(out[2], 30u);

  // New transactions work and LSNs continue beyond the old watermark.
  Txn w = db->Begin();
  ASSERT_TRUE(accounts->Insert(w, {100, 1, 2}).ok());
  ASSERT_TRUE(w.Commit().ok());
  RedoLog::ReplayStats stats;
  ASSERT_TRUE(RedoLog::Replay(
                  dir_, [](const LogRecord&, uint64_t) {}, &stats)
                  .ok());
  EXPECT_GT(stats.last_lsn, watermark);
}

TEST_F(CheckpointTest, RecoversFromLogAloneWithoutCheckpoint) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Txn txn = db->Begin();
    for (Value k = 0; k < 10; ++k) {
      ASSERT_TRUE(db->GetTable("t")->Insert(txn, {k, k * 7, 0}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    // No checkpoint: the catalog + log carry everything.
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  ASSERT_NE(t, nullptr);
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(r, 4, 0b010, &out).ok());
  EXPECT_EQ(out[1], 28u);
  (void)r.Commit();
}

TEST_F(CheckpointTest, PostCheckpointWritesReplayFromLogTail) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn a = db->Begin();
    for (Value k = 0; k < 10; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, k, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Writes after the checkpoint live only in the log tail.
    Txn b = db->Begin();
    ASSERT_TRUE(t->Update(b, 3, 0b010, {0, 999, 0}).ok());
    ASSERT_TRUE(t->Insert(b, {20, 20, 20}).ok());
    ASSERT_TRUE(b.Commit().ok());
    Txn c = db->Begin();
    ASSERT_TRUE(t->Delete(c, 7).ok());
    ASSERT_TRUE(c.Commit().ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(r, 3, 0b010, &out).ok());
  EXPECT_EQ(out[1], 999u);
  ASSERT_TRUE(t->Read(r, 20, 0b111, &out).ok());
  EXPECT_EQ(out[2], 20u);
  EXPECT_TRUE(t->Read(r, 7, 0b010, &out).IsNotFound());
  (void)r.Commit();
}

TEST_F(CheckpointTest, TransactionOpenDuringCheckpointResolvedByLogTail) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn setup = db->Begin();
    ASSERT_TRUE(t->Insert(setup, {1, 10, 0}).ok());
    ASSERT_TRUE(t->Insert(setup, {2, 20, 0}).ok());
    ASSERT_TRUE(setup.Commit().ok());

    // Two in-flight transactions at checkpoint time: one commits
    // after the checkpoint (outcome in the log tail), one never does.
    Txn wins = db->Begin();
    ASSERT_TRUE(t->Update(wins, 1, 0b010, {0, 111, 0}).ok());
    Txn loses = db->Begin();
    ASSERT_TRUE(t->Update(loses, 2, 0b010, {0, 222, 0}).ok());

    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(wins.Commit().ok());
    // `loses` crashes without an outcome record.
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(r, 1, 0b010, &out).ok());
  EXPECT_EQ(out[1], 111u);  // committed after the watermark
  ASSERT_TRUE(t->Read(r, 2, 0b010, &out).ok());
  EXPECT_EQ(out[1], 20u);  // rolled back: no commit record
  (void)r.Commit();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, TornLogTailRecoversCommittedPrefix) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn a = db->Begin();
    for (Value k = 0; k < 5; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, k, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    Txn b = db->Begin();
    ASSERT_TRUE(t->Update(b, 2, 0b010, {0, 55, 0}).ok());
    ASSERT_TRUE(b.Commit().ok());
  }
  // Crash mid-write: the final bytes of the log are torn off.
  const std::string log = LogFile();
  ASSERT_EQ(0, ::truncate(log.c_str(), LogFileBytes(log) - 3));

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  Txn r = db->Begin();
  std::vector<Value> out;
  // The torn commit record aborts txn b; the first transaction stands.
  ASSERT_TRUE(t->Read(r, 2, 0b010, &out).ok());
  EXPECT_EQ(out[1], 2u);
  ASSERT_TRUE(t->Read(r, 4, 0b010, &out).ok());
  EXPECT_EQ(out[1], 4u);
  (void)r.Commit();
}

TEST_F(CheckpointTest, FlippedByteInCheckpointFailsCleanly) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn a = db->Begin();
    for (Value k = 0; k < 20; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, k, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Flip one byte in the middle of the checkpointed pages.
  std::string ckpt;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".ckpt") ckpt = e.path().string();
  }
  ASSERT_FALSE(ckpt.empty());
  {
    std::FILE* f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, sz / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, sz / 2, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  std::unique_ptr<Database> db;
  Status s = Database::Open(dir_, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// The on-disk states a crash during a checkpoint can leave, built by
// copying files from a database whose checkpoints keep their closed
// segments, then reopened with truncation on:
//   kRolled       the next segment created and empty, its manifest not
//                 yet published;
//   kNoneRetired  the manifest published, every retired segment (this
//                 checkpoint's and earlier ones') still present;
//   kHalfRetired  the manifest published, half of them deleted.
// Every acknowledged commit reads back; the next checkpoint retires all
// the crash left, so one segment remains; and a restart after it still
// reads every commit.
TEST_F(CheckpointTest, CrashStatesAroundCheckpointConverge) {
  enum class State { kRolled, kNoneRetired, kHalfRetired };
  const std::string crash = dir_ + "_crash";
  for (State state :
       {State::kRolled, State::kNoneRetired, State::kHalfRetired}) {
    SCOPED_TRACE(static_cast<int>(state));
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(crash);
    std::map<Value, Value> acked;  // key -> column 1, committed
    Value next = 0;
    auto round = [&](Database* db) {
      Table* t = db->GetTable("t");
      Txn txn = db->Begin();
      std::map<Value, Value> wrote;
      for (int i = 0; i < 6; ++i, ++next) {
        ASSERT_TRUE(t->Insert(txn, {next, next * 3, 0}).ok());
        wrote[next] = next * 3;
      }
      if (next > 10) {
        ASSERT_TRUE(t->Update(txn, next - 10, 0b010, {0, next * 7, 0}).ok());
        wrote[next - 10] = next * 7;
      }
      ASSERT_TRUE(txn.Commit().ok());
      for (const auto& [k, v] : wrote) acked[k] = v;
    };
    auto expect_acked = [&](Database* db) {
      Table* t = db->GetTable("t");
      ASSERT_NE(t, nullptr);
      Txn r = db->Begin();
      std::vector<Value> out;
      for (const auto& [k, v] : acked) {
        ASSERT_TRUE(t->Read(r, k, 0b010, &out).ok()) << k;
        EXPECT_EQ(out[1], v) << k;
      }
      (void)r.Commit();
    };

    DurabilityOptions keep;
    keep.truncate_log_after_checkpoint = false;
    uint64_t last_lsn = 0;
    {
      std::unique_ptr<Database> db;
      ASSERT_TRUE(Database::Open(dir_, keep, &db).ok());
      ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
      for (int i = 0; i < 4; ++i) {
        round(db.get());
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      round(db.get());
      last_lsn = db->redo_log()->last_lsn();
    }
    ASSERT_EQ(Segments().size(), 5u);
    std::filesystem::copy(dir_, crash,
                          std::filesystem::copy_options::recursive);
    if (state == State::kRolled) {
      File next_segment;
      ASSERT_TRUE(next_segment
                      .Open(FramedLog::SegmentPath(crash, last_lsn + 1),
                            File::Mode::kCreateTruncate)
                      .ok());
    } else {
      Manifest m;
      bool exists = false;
      ASSERT_TRUE(ReadManifest(crash, &m, &exists).ok());
      ASSERT_TRUE(exists);
      std::vector<FramedLog::Segment> retired;
      ASSERT_TRUE(
          FramedLog::RetiredSegments(crash, m.log_watermark, &retired).ok());
      ASSERT_EQ(retired.size(), 4u);
      for (size_t i = 0; state == State::kHalfRetired && i < retired.size();
           i += 2) {
        ASSERT_EQ(std::remove(retired[i].path.c_str()), 0);
      }
    }

    {
      std::unique_ptr<Database> db;
      ASSERT_TRUE(Database::Open(crash, &db).ok());
      expect_acked(db.get());
      round(db.get());
      ASSERT_TRUE(db->Checkpoint().ok());
      EXPECT_EQ(Segments(crash).size(), 1u);
      round(db.get());
    }
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(crash, &db).ok());
    expect_acked(db.get());
  }
  std::filesystem::remove_all(crash);
}

// Every file under `dir` with its bytes; the event log, which records
// each open attempt, aside.
std::map<std::string, std::string> FilesOf(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().filename() == "events.log") continue;
    EXPECT_TRUE(ReadFile(e.path().string(), &out[e.path().string()]).ok());
  }
  return out;
}

// A log whose segments do not chain past the checkpoint fails
// Database::Open with Corruption before any file changes: a missing
// middle segment, and a torn frame in a segment that is not the newest.
TEST_F(CheckpointTest, BrokenSegmentChainFailsOpenAndChangesNoFile) {
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "torn" : "missing");
    std::filesystem::remove_all(dir_);
    {
      std::unique_ptr<Database> db;
      ASSERT_TRUE(Database::Open(dir_, &db).ok());
      ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
      Table* t = db->GetTable("t");
      for (Value k = 0; k < 4; ++k) {
        Txn txn = db->Begin();
        ASSERT_TRUE(t->Insert(txn, {k, k, k}).ok());
        ASSERT_TRUE(txn.Commit().ok());
        uint64_t watermark = 0;
        if (k < 3) {
          ASSERT_TRUE(db->redo_log()->Roll(&watermark).ok());
        }
      }
    }
    const std::vector<FramedLog::Segment> segments = Segments();
    ASSERT_EQ(segments.size(), 4u);
    if (torn) {
      ASSERT_EQ(::truncate(segments[1].path.c_str(),
                           LogFileBytes(segments[1].path) - 3),
                0);
    } else {
      ASSERT_EQ(std::remove(segments[1].path.c_str()), 0);
    }
    const auto before = FilesOf(dir_);
    std::unique_ptr<Database> db;
    Status s = Database::Open(dir_, &db);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(db, nullptr);
    EXPECT_EQ(FilesOf(dir_), before);
    EXPECT_TRUE(
        RedoLog::Replay(dir_, [](const LogRecord&) {}).IsCorruption());
  }
}

// ---------------------------------------------------------------------------
// Lineage state: merges, historic compression, secondary indexes
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, MergedAndHistoricStateSurvivesRestart) {
  Timestamp early = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn a = db->Begin();
    for (Value k = 0; k < 32; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, k, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    early = db->Now();
    for (int round = 0; round < 3; ++round) {
      Txn u = db->Begin();
      for (Value k = 0; k < 32; ++k) {
        ASSERT_TRUE(
            t->Update(u, k, 0b010, {0, 1000 * (round + 1) + k, 0}).ok());
      }
      ASSERT_TRUE(u.Commit().ok());
    }
    t->FlushAll();                       // consolidate into base pages
    ASSERT_GT(t->CompressHistoricNow(0), 0u);  // move old tail versions
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  EXPECT_GT(t->RangeTps(0), 0u);  // merge lineage restored
  Txn r = db->Begin();
  std::vector<Value> out;
  for (Value k = 0; k < 32; ++k) {
    ASSERT_TRUE(t->Read(r, k, 0b010, &out).ok());
    EXPECT_EQ(out[1], 3000 + k);
  }
  (void)r.Commit();
  // Versions that live in the compressed historic store still answer
  // time-travel queries after restart.
  ASSERT_TRUE(t->ReadAsOf(4, early, 0b010, &out).ok());
  EXPECT_EQ(out[1], 4u);
}

TEST_F(CheckpointTest, SecondaryIndexesRebuiltOnOpen) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    ASSERT_TRUE(db->CreateTable("u", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Table* u = db->GetTable("u");
    Txn a = db->Begin();
    for (Value k = 0; k < 20; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, k % 4, 0}).ok());
      ASSERT_TRUE(u->Insert(a, {k, k % 5, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    // Index on t reaches the durable state via the checkpoint
    // manifest; index on u only via the catalog (no checkpoint after).
    t->CreateSecondaryIndex(1);
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->CreateSecondaryIndex("u", 1).ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  std::vector<Value> keys;
  ASSERT_TRUE(db->GetTable("t")
                  ->NewQuery()
                  .Where(1, Value{2})
                  .AsOf(db->Now())
                  .Keys(&keys)
                  .ok());
  EXPECT_EQ(keys, (std::vector<Value>{2, 6, 10, 14, 18}));
  ASSERT_TRUE(db->GetTable("u")
                  ->NewQuery()
                  .Where(1, Value{2})
                  .AsOf(db->Now())
                  .Keys(&keys)
                  .ok());
  EXPECT_EQ(keys, (std::vector<Value>{2, 7, 12, 17}));
}

TEST_F(CheckpointTest, TableLifecycleSurvivesRestart) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("keep", Schema(3), SmallConfig()).ok());
    ASSERT_TRUE(db->CreateTable("drop_me", Schema(3), SmallConfig()).ok());
    Txn a = db->Begin();
    ASSERT_TRUE(db->GetTable("keep")->Insert(a, {1, 2, 3}).ok());
    ASSERT_TRUE(a.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->DropTable("drop_me").ok());
    // Created after the checkpoint: recovered from catalog + log only.
    ASSERT_TRUE(db->CreateTable("late", Schema(2), SmallConfig()).ok());
    Txn b = db->Begin();
    ASSERT_TRUE(db->GetTable("late")->Insert(b, {7, 70}).ok());
    ASSERT_TRUE(b.Commit().ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  EXPECT_EQ(db->GetTable("drop_me"), nullptr);
  ASSERT_NE(db->GetTable("keep"), nullptr);
  ASSERT_NE(db->GetTable("late"), nullptr);
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(db->GetTable("keep")->Read(r, 1, 0b111, &out).ok());
  EXPECT_EQ(out[2], 3u);
  ASSERT_TRUE(db->GetTable("late")->Read(r, 7, 0b11, &out).ok());
  EXPECT_EQ(out[1], 70u);
  (void)r.Commit();
}

TEST_F(CheckpointTest, RecreatedTableDoesNotResurrectDroppedData) {
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    Txn a = db->Begin();
    for (Value k = 0; k < 20; ++k) {
      ASSERT_TRUE(t->Insert(a, {k, 111, 0}).ok());
    }
    ASSERT_TRUE(a.Commit().ok());
    // Checkpoint pins the old incarnation in the manifest with a high
    // watermark; a stale entry must not shadow the new table's log.
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->DropTable("t").ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    t = db->GetTable("t");
    Txn b = db->Begin();
    ASSERT_TRUE(t->Insert(b, {5, 222, 0}).ok());
    ASSERT_TRUE(b.Commit().ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(r, 5, 0b010, &out).ok());
  EXPECT_EQ(out[1], 222u);  // new incarnation, not the dropped one
  EXPECT_TRUE(t->Read(r, 6, 0b010, &out).IsNotFound());
  (void)r.Commit();
}

// A dropped table's records stay in the one log, below the last
// checkpoint (sealed into the archive) and above it (in the live log),
// until a later checkpoint. The table recreated under the same name
// gets a fresh catalog id: a reopen and a point-in-time restore both
// skip every record of the old id and return only the new rows.
TEST_F(CheckpointTest, DropAndRecreateSkipsTheDroppedIdInOneLog) {
  DurabilityOptions opts;
  opts.archive_enabled = true;
  auto keys_of = [](Database* db, const char* table = "a") {
    std::vector<Value> keys;
    EXPECT_TRUE(db->GetTable(table)->NewQuery().Keys(&keys).ok());
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  Timestamp end = 0;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
    ASSERT_TRUE(db->CreateTable("a", Schema(3), SmallConfig()).ok());
    ASSERT_TRUE(db->CreateTable("keep", Schema(3), SmallConfig()).ok());
    Txn below = db->Begin();
    for (Value k = 0; k < 20; ++k) {
      ASSERT_TRUE(db->GetTable("a")->Insert(below, {k, 111, 0}).ok());
    }
    ASSERT_TRUE(db->GetTable("keep")->Insert(below, {1, 1, 1}).ok());
    ASSERT_TRUE(below.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    Txn above = db->Begin();
    for (Value k = 20; k < 30; ++k) {
      ASSERT_TRUE(db->GetTable("a")->Insert(above, {k, 111, 0}).ok());
    }
    ASSERT_TRUE(db->GetTable("a")->Update(above, 3, 0b010, {0, 333, 0}).ok());
    ASSERT_TRUE(above.Commit().ok());
    ASSERT_TRUE(db->DropTable("a").ok());
    ASSERT_TRUE(db->CreateTable("a", Schema(3), SmallConfig()).ok());
    Txn fresh = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(fresh, {5, 222, 0}).ok());
    ASSERT_TRUE(db->GetTable("a")->Insert(fresh, {100, 222, 0}).ok());
    ASSERT_TRUE(fresh.Commit().ok());
    EXPECT_EQ(keys_of(db.get()), (std::vector<Value>{5, 100}));
    end = db->Now();
  }
  // The old incarnation (id 0) still has records in the live log; the
  // new one writes under id 2.
  std::set<uint64_t> ids;
  ASSERT_TRUE(RedoLog::Replay(dir_,
                              [&](const LogRecord& rec) {
                                if (rec.type == LogRecordType::kInsertAppend) {
                                  ids.insert(rec.table_id);
                                }
                              })
                  .ok());
  EXPECT_EQ(ids, (std::set<uint64_t>{0, 2}));

  auto check = [&](Database* db) {
    ASSERT_NE(db->GetTable("a"), nullptr);
    EXPECT_EQ(keys_of(db), (std::vector<Value>{5, 100}));
    EXPECT_EQ(keys_of(db, "keep"), (std::vector<Value>{1}));
    Txn r = db->Begin();
    std::vector<Value> out;
    ASSERT_TRUE(db->GetTable("a")->Read(r, 5, 0b010, &out).ok());
    EXPECT_EQ(out[1], 222u);
    EXPECT_TRUE(db->GetTable("a")->Read(r, 3, 0b010, &out).IsNotFound());
    ASSERT_TRUE(db->GetTable("keep")->Read(r, 1, 0b010, &out).ok());
    (void)r.Commit();
  };
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
    check(db.get());
  }
  std::unique_ptr<Database> restored;
  Status s = Database::RestoreToPoint(dir_, RestorePoint::AtTime(end),
                                      &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  check(restored.get());
}

std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeNow() { return g_fake_now_ns.load(); }

// The timed trigger is a timer on the database's executor: on a fake
// clock, each interval that passes takes exactly one checkpoint, run
// on the database's background queue, with no sleeps.
TEST_F(CheckpointTest, BackgroundCheckpointTimerTriggers) {
  constexpr uint64_t kMsNs = 1000000;
  DurabilityOptions opts;
  opts.checkpoint_interval_ms = 20;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
    g_fake_now_ns.store(1 * kMsNs);
    db->health().SetClockForTest(&FakeNow);
    Executor& ex = db->executor();
    ex.RunDue();  // re-arms the timer on the fake clock
    db->background().Drain();
    ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
    Table* t = db->GetTable("t");
    for (Value k = 0; k < 50; ++k) {
      Txn txn = db->Begin();
      ASSERT_TRUE(t->Insert(txn, {k, k, 0}).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    CheckpointManager* cm = db->checkpoint_manager();
    const uint64_t base = cm->checkpoints_taken();
    g_fake_now_ns.fetch_add(19 * kMsNs);
    ex.RunDue();
    db->background().Drain();
    EXPECT_EQ(cm->checkpoints_taken(), base);  // not yet an interval
    for (uint64_t n = 1; n <= 3; ++n) {
      g_fake_now_ns.fetch_add(20 * kMsNs);
      ex.RunDue();
      db->background().Drain();
      EXPECT_EQ(cm->checkpoints_taken(), base + n);
    }
    EXPECT_TRUE(cm->last_background_status().ok());
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  Table* t = db->GetTable("t");
  Txn r = db->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(r, 42, 0b010, &out).ok());
  EXPECT_EQ(out[1], 42u);
  (void)r.Commit();
}

// A background checkpoint that outlasts the interval is not followed at
// once by another: while it is posted or running a tick posts nothing,
// and the next one is due a full interval after it ends. The database's
// background queue is held by a gate task from 21 ms to 75 ms of the
// fake clock, so the checkpoint due at 21 ms ends at 75 ms.
TEST_F(CheckpointTest, IntervalCountsFromTheEndOfALongCheckpoint) {
  constexpr uint64_t kMsNs = 1000000;
  DurabilityOptions opts;
  opts.checkpoint_interval_ms = 20;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  g_fake_now_ns.store(1 * kMsNs);
  db->health().SetClockForTest(&FakeNow);
  Executor& ex = db->executor();
  SerialQueue& background = db->background();
  ex.RunDue();  // re-arms the timer on the fake clock
  CheckpointManager* cm = db->checkpoint_manager();
  const uint64_t base = cm->checkpoints_taken();
  auto step_to = [&](uint64_t ms) {
    g_fake_now_ns.store(ms * kMsNs);
    ex.RunDue();
  };

  std::atomic<bool> gate{true};
  background.Post([&] {
    while (gate.load()) std::this_thread::yield();
  });
  step_to(21);  // due: posted behind the gate
  step_to(41);  // ticks while it is pending post nothing
  step_to(61);
  step_to(75);
  gate.store(false);
  background.Drain();
  EXPECT_EQ(cm->checkpoints_taken(), base + 1);

  step_to(81);  // 20 ms after the last tick, 6 ms after the end
  background.Drain();
  EXPECT_EQ(cm->checkpoints_taken(), base + 1);
  step_to(95);  // a full interval after the end
  background.Drain();
  EXPECT_EQ(cm->checkpoints_taken(), base + 2);
  EXPECT_TRUE(cm->last_background_status().ok());
}

// With no timed interval, the size trigger alone checkpoints once the
// redo log passes checkpoint_log_bytes, and the checkpoint retires the
// segment it closes. It runs in real time: the executor's timer
// thread polls the log. The log's length is its appended bytes (the
// open file also holds a zero tail); closed, the file is that long.
TEST_F(CheckpointTest, LogSizeTriggerCheckpointsAndShrinksTheLog) {
  DurabilityOptions opts;
  opts.checkpoint_interval_ms = 0;
  opts.checkpoint_log_bytes = 4096;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
  Table* t = db->GetTable("t");
  CheckpointManager* cm = db->checkpoint_manager();

  uint64_t peak = 0;
  for (Value k = 0; peak <= opts.checkpoint_log_bytes &&
                    cm->checkpoints_taken() == 0;
       ++k) {
    ASSERT_LT(k, 100000u) << "the log never passed the bound";
    Txn txn = db->Begin();
    ASSERT_TRUE(t->Insert(txn, {k, k, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    peak = std::max(peak, db->redo_log()->bytes());
  }
  for (int i = 0; i < 500 && cm->checkpoints_taken() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(cm->checkpoints_taken(), 0u);
  EXPECT_TRUE(cm->last_background_status().ok());
  EXPECT_LT(db->redo_log()->bytes(), peak);
  EXPECT_LE(db->redo_log()->bytes(), opts.checkpoint_log_bytes);
  db.reset();
  EXPECT_LT(LogFileBytes(LogFile()), peak);
  EXPECT_LE(LogFileBytes(LogFile()), opts.checkpoint_log_bytes);
}

// The size trigger reads the log's appended length, not its file: the
// open file's zero tail takes it past a 1 MiB bound while the log holds
// ~100 KiB, and the polls post nothing until the records pass the bound.
// The polls run on a fake clock.
TEST_F(CheckpointTest, LogSizeTriggerIgnoresTheZeroTail) {
  constexpr uint64_t kMsNs = 1000000;
  DurabilityOptions opts;
  opts.checkpoint_log_bytes = 1 << 20;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, opts, &db).ok());
  TableConfig cfg = SmallConfig();
  cfg.range_size = cfg.insert_range_size = 4096;
  ASSERT_TRUE(db->CreateTable("t", Schema(3), cfg).ok());
  Table* t = db->GetTable("t");
  g_fake_now_ns.store(1 * kMsNs);
  db->health().SetClockForTest(&FakeNow);
  db->executor().RunDue();  // re-arms the poll on the fake clock
  CheckpointManager* cm = db->checkpoint_manager();
  const uint64_t base = cm->checkpoints_taken();
  auto polls = [&] {
    for (int i = 0; i < 4; ++i) {
      g_fake_now_ns.fetch_add(50 * kMsNs);
      db->executor().RunDue();
      db->background().Drain();
    }
  };
  Value next = 0;
  auto load_until = [&](uint64_t bytes) {
    while (db->redo_log()->bytes() < bytes) {
      std::vector<std::vector<Value>> rows;
      for (int i = 0; i < 256; ++i, ++next) {
        rows.push_back({next, ~next, ~uint64_t{0} - next});  // 10-byte varints
      }
      Txn txn = db->Begin();
      ASSERT_TRUE(t->InsertBatch(txn, rows).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
  };

  load_until(100 * 1024);
  ASSERT_GT(LogFileBytes(LogFile()), opts.checkpoint_log_bytes);
  polls();
  EXPECT_EQ(cm->checkpoints_taken(), base);

  load_until(opts.checkpoint_log_bytes + 1);
  polls();
  EXPECT_EQ(cm->checkpoints_taken(), base + 1);
  EXPECT_TRUE(cm->last_background_status().ok());
  EXPECT_LT(db->redo_log()->bytes(), opts.checkpoint_log_bytes);
}

TEST_F(CheckpointTest, RepeatedCheckpointsPruneOldFiles) {
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(dir_, &db).ok());
  ASSERT_TRUE(db->CreateTable("t", Schema(3), SmallConfig()).ok());
  Table* t = db->GetTable("t");
  for (int round = 0; round < 3; ++round) {
    Txn txn = db->Begin();
    ASSERT_TRUE(t->Insert(txn, {static_cast<Value>(round), 1, 2}).ok());
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  int ckpt_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".ckpt") ++ckpt_files;
  }
  EXPECT_EQ(ckpt_files, 1);  // only the latest checkpoint remains
}

}  // namespace
}  // namespace lstore
