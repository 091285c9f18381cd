// Log archiving + point-in-time recovery (src/archive/).
//
// The heart of the suite is an oracle schedule: a mixed single- and
// cross-table workload that records, after EVERY commit, the point's
// timestamp and the full expected state of both tables. Each recorded
// point is then restored with Database::RestoreToPoint and compared
// exactly — across multiple checkpoint cycles (each rolls the log and
// renames its closed segments into the archive), merges, and
// crash-shaped states. Fault injection covers torn archive segments
// (clean Corruption, never silent loss), the crash states around a
// checkpoint's roll and segment moves, a failed move, stray files whose
// names only look like segments, and retention eviction (points behind
// the floor fail cleanly; everything at or after the floor stays
// exactly restorable).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "core/database.h"
#include "core/query.h"
#include "core/table.h"
#include "log/framed_log.h"
#include "log/redo_log.h"
#include "obs/span.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

using TableState = std::map<Value, std::vector<Value>>;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_arc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "_crash");
  }

  static TableConfig SmallConfig() {
    TableConfig cfg;
    cfg.range_size = 32;
    cfg.insert_range_size = 32;
    cfg.tail_page_slots = 8;
    cfg.merge_threshold = 1u << 20;  // manual merges only
    cfg.enable_merge_thread = false;
    return cfg;
  }

  static DurabilityOptions ArchiveOpts() {
    DurabilityOptions opts;
    opts.archive_enabled = true;
    return opts;
  }

  static TableState Snapshot(Table* t, const std::vector<Value>& keys,
                             Timestamp as_of) {
    TableState s;
    ColumnMask all = (1u << t->schema().num_columns()) - 1;
    for (Value k : keys) {
      std::vector<Value> row;
      if (t->ReadAsOf(k, as_of, all, &row).ok()) s[k] = row;
    }
    return s;
  }

  struct OraclePoint {
    Timestamp t = 0;          ///< restore point (inclusive commit time)
    uint64_t commit_lsn = 0;  ///< its commit record's LSN (0: none logged)
    bool cross = false;       ///< the transaction wrote both tables
    TableState a, b;
  };

  struct Oracle {
    std::vector<OraclePoint> points;
    std::vector<Value> keys_a, keys_b;
  };

  /// Run `nops` mixed operations against tables A (k,v1,v2) and
  /// B (k,v), checkpointing every `ckpt_every` ops, recording an
  /// oracle point after every commit. Keys 100..104 / 200..204 are the
  /// cross-table pool (each cross txn writes the SAME value to
  /// A.v2 and B.v of a paired key — a split transaction breaks the
  /// pairing). Appends to `oracle` so the schedule can resume after a
  /// simulated crash.
  void RunSchedule(Database* db, Oracle* oracle, int nops, int ckpt_every,
                   uint32_t seed) {
    Table* a = db->GetTable("A");
    Table* b = db->GetTable("B");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    std::mt19937 rng(seed);
    if (oracle->keys_a.empty()) {
      for (Value j = 0; j < 5; ++j) {
        Txn txn = db->Begin();
        ASSERT_TRUE(a->Insert(txn, {100 + j, 0, 0}).ok());
        ASSERT_TRUE(b->Insert(txn, {200 + j, 0}).ok());
        const uint64_t before = db->redo_log()->last_lsn();
        ASSERT_TRUE(txn.Commit().ok());
        oracle->keys_a.push_back(100 + j);
        oracle->keys_b.push_back(200 + j);
        Record(db, oracle, before, /*cross=*/true);
      }
    }
    Value next_a = 1000 + static_cast<Value>(oracle->points.size());
    Value next_b = 2000 + static_cast<Value>(oracle->points.size());
    for (int i = 0; i < nops; ++i) {
      int op = static_cast<int>(rng() % 5);
      Txn txn = db->Begin();
      switch (op) {
        case 0: {  // insert into A
          ASSERT_TRUE(a->Insert(txn, {next_a, rng() % 97, 0}).ok());
          oracle->keys_a.push_back(next_a++);
          break;
        }
        case 1: {  // update a random A key's v1
          Value k = oracle->keys_a[rng() % oracle->keys_a.size()];
          (void)a->Update(txn, k, 0b010, {0, rng() % 997, 0});
          break;
        }
        case 2: {  // delete a non-pool A key, if any exists
          if (oracle->keys_a.size() > 5) {
            Value k = oracle->keys_a[5 + rng() % (oracle->keys_a.size() - 5)];
            (void)a->Delete(txn, k);
          } else {
            Value k = oracle->keys_a[rng() % oracle->keys_a.size()];
            (void)a->Update(txn, k, 0b010, {0, rng() % 997, 0});
          }
          break;
        }
        case 3: {  // B traffic — pool keys stay exclusive to cross txns
          if (oracle->keys_b.size() < 8 || rng() % 3 == 0) {
            ASSERT_TRUE(b->Insert(txn, {next_b, rng() % 97}).ok());
            oracle->keys_b.push_back(next_b++);
          } else {
            Value k =
                oracle->keys_b[5 + rng() % (oracle->keys_b.size() - 5)];
            (void)b->Update(txn, k, 0b10, {0, rng() % 997});
          }
          break;
        }
        case 4: {  // cross-table: same value to a paired key of A and B
          Value j = rng() % 5;
          Value v = 10000 + static_cast<Value>(oracle->points.size());
          ASSERT_TRUE(a->Update(txn, 100 + j, 0b100, {0, 0, v}).ok());
          ASSERT_TRUE(b->Update(txn, 200 + j, 0b10, {0, v}).ok());
          break;
        }
      }
      const uint64_t before = db->redo_log()->last_lsn();
      Status cs = txn.Commit();
      ASSERT_TRUE(cs.ok()) << cs.ToString();
      Record(db, oracle, before, /*cross=*/op == 4);
      if (i % 9 == 5) {
        a->FlushAll();  // merges: base segments + lineage move
        b->FlushAll();
      }
      if (ckpt_every > 0 && (i + 1) % ckpt_every == 0) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
  }

  /// Record the point of the commit just made; `before` is the log's
  /// last LSN before it, so a commit record appended since is its own.
  void Record(Database* db, Oracle* oracle, uint64_t before, bool cross) {
    OraclePoint p;
    // db->Now() = clock + 1 (covers every commit); the point itself is
    // the newest commit time, so restore-inclusive matches the
    // snapshot read at as_of = t + 1.
    p.t = db->Now() - 1;
    const uint64_t last = db->redo_log()->last_lsn();
    p.commit_lsn = last > before ? last : 0;
    p.cross = cross;
    p.a = Snapshot(db->GetTable("A"), oracle->keys_a, p.t + 1);
    p.b = Snapshot(db->GetTable("B"), oracle->keys_b, p.t + 1);
    oracle->points.push_back(std::move(p));
  }

  void OpenWithTables(const DurabilityOptions& opts,
                      std::unique_ptr<Database>* db) {
    ASSERT_TRUE(Database::Open(dir_, opts, db).ok());
    if ((*db)->GetTable("A") == nullptr) {
      ASSERT_TRUE(
          (*db)->CreateTable("A", Schema({"k", "v1", "v2"}), SmallConfig())
              .ok());
      ASSERT_TRUE(
          (*db)->CreateTable("B", Schema({"k", "v"}), SmallConfig()).ok());
    }
  }

  /// Bytes under the archive directory (what archive_max_bytes bounds).
  uint64_t ArchiveBytes() const {
    uint64_t bytes = 0;
    for (const auto& entry :
         fs::directory_iterator(ArchiveManager::ArchiveDirOf(dir_))) {
      bytes += entry.file_size();
    }
    return bytes;
  }

  /// Retention kept the floor, the oldest retained archived manifest:
  /// every point at or after its capture restores exactly (the live
  /// checkpoint and every point after it included); older points fail
  /// with a clean NotFound, never wrong data. Expects both kinds.
  void ExpectRetentionFloorHolds(const Oracle& oracle) {
    auto manifests = ArchiveManager::ListManifests(dir_);
    ASSERT_FALSE(manifests.empty());
    Manifest floor;
    bool exists = false;
    ASSERT_TRUE(
        ReadManifestFile(manifests.front().path, &floor, &exists).ok());
    ASSERT_TRUE(exists);
    ASSERT_GT(floor.capture_time, 0u);

    size_t restored = 0, evicted = 0;
    for (const OraclePoint& p : oracle.points) {
      std::unique_ptr<Database> rdb;
      Status s =
          Database::RestoreToPoint(dir_, RestorePoint::AtTime(p.t), &rdb);
      if (p.t + 1 >= floor.capture_time) {
        ASSERT_TRUE(s.ok()) << "point " << p.t << " at/after floor "
                            << floor.capture_time << ": " << s.ToString();
        EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
        EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
        ++restored;
      } else if (s.ok()) {
        // An older point may still be coincidentally coverable; if the
        // restore claims success it must be exact.
        EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
        EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
      } else {
        EXPECT_TRUE(s.IsNotFound()) << s.ToString();
        ++evicted;
      }
    }
    EXPECT_GT(restored, 0u);
    EXPECT_GT(evicted, 0u);
  }

  /// Restore `point` and compare both tables exactly; also check the
  /// cross-table pairing invariant.
  void VerifyPoint(const OraclePoint& p, const Oracle& oracle) {
    std::unique_ptr<Database> rdb;
    Status s = Database::RestoreToPoint(dir_, RestorePoint::AtTime(p.t), &rdb);
    ASSERT_TRUE(s.ok()) << "restore to " << p.t << ": " << s.ToString();
    TableState ra =
        Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1);
    TableState rb =
        Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1);
    EXPECT_EQ(ra, p.a) << "table A diverged at point " << p.t;
    EXPECT_EQ(rb, p.b) << "table B diverged at point " << p.t;
    // No split transactions: every cross-table write pairs A.v2 with
    // B.v — and the restored database's own Now() must already sit at
    // the point (default reads need no explicit as_of).
    TableState na = Snapshot(rdb->GetTable("A"), oracle.keys_a,
                             rdb->GetTable("A")->Now());
    for (Value j = 0; j < 5; ++j) {
      auto ia = na.find(100 + j);
      auto ib = rb.find(200 + j);
      if (ia != na.end() && ib != rb.end()) {
        EXPECT_EQ(ia->second[2], ib->second[1])
            << "split cross-table txn at point " << p.t << " pair " << j;
      }
    }
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// The oracle: restore to EVERY recorded commit point
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RestoreToEveryCommitPointMatchesOracle) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 60, 12, /*seed=*/7);
    // >= 2 checkpoint/truncation cycles with sealed segments.
    ASSERT_GE(ArchiveManager::ListManifests(dir_).size(), 2u);
    ASSERT_FALSE(ArchiveManager::ListRedoSegments(dir_).empty());
  }
  ASSERT_GT(oracle.points.size(), 60u);
  for (const OraclePoint& p : oracle.points) VerifyPoint(p, oracle);
}

TEST_F(ArchiveTest, RestoreSurvivesReopenBetweenCycles) {
  // Same oracle discipline, but the database is closed and reopened
  // (full restart recovery) between schedule segments — archived
  // state must compose across process lifetimes.
  Oracle oracle;
  for (uint32_t round = 0; round < 3; ++round) {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 18, 8, /*seed=*/100 + round);
  }
  for (size_t i = 0; i < oracle.points.size(); i += 3) {
    VerifyPoint(oracle.points[i], oracle);
  }
  VerifyPoint(oracle.points.back(), oracle);
}

TEST_F(ArchiveTest, RestoreByCommitLsn) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 40, 10, /*seed=*/21);
  }
  // Every commit record names a point, single-table commits included.
  size_t single = 0, cross = 0;
  for (const OraclePoint& p : oracle.points) {
    if (p.commit_lsn == 0) continue;
    std::unique_ptr<Database> rdb;
    Status s = Database::RestoreToPoint(
        dir_, RestorePoint::AtCommitLsn(p.commit_lsn), &rdb);
    ASSERT_TRUE(s.ok()) << "LSN " << p.commit_lsn << ": " << s.ToString();
    EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, p.t + 1), p.a);
    EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, p.t + 1), p.b);
    ++(p.cross ? cross : single);
  }
  EXPECT_GT(cross, 3u);
  EXPECT_GT(single, 3u);

  std::unique_ptr<Database> rdb;
  EXPECT_TRUE(Database::RestoreToPoint(dir_, RestorePoint::AtCommitLsn(1u << 20),
                                       &rdb)
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, TornArchiveSegmentRejectedNeverSilentlyWrong) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 40, 10, /*seed=*/3);
  }
  auto segs = ArchiveManager::ListRedoSegments(dir_);
  ASSERT_FALSE(segs.empty());
  const std::string victim = segs.front().path;
  std::string original;
  {
    std::ifstream in(victim, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(original.size(), 16u);
  const OraclePoint& early = oracle.points[2];

  std::mt19937 rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    size_t cut = 1 + rng() % (original.size() - 1);
    ASSERT_EQ(::truncate(victim.c_str(), static_cast<off_t>(cut)), 0);
    std::unique_ptr<Database> rdb;
    Status s =
        Database::RestoreToPoint(dir_, RestorePoint::AtTime(early.t), &rdb);
    // A truncated segment must surface as a clean error — it must
    // never restore with records silently missing.
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut << " -> " << s.ToString();
  }
  // Bit flip mid-file: frame checksum catches it.
  {
    std::string corrupt = original;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  {
    std::unique_ptr<Database> rdb;
    EXPECT_TRUE(
        Database::RestoreToPoint(dir_, RestorePoint::AtTime(early.t), &rdb)
            .IsCorruption());
  }
  // Restoring the original bytes heals the archive completely.
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(original.data(), static_cast<std::streamsize>(original.size()));
  }
  VerifyPoint(early, oracle);
  // The newest point never needed the victim segment: restorable even
  // while the old segment was torn (checked last so the heal above
  // does not mask it).
  VerifyPoint(oracle.points.back(), oracle);
}

// The on-disk states a crash during an archiving checkpoint can leave,
// built by copying files from a database whose checkpoints keep their
// closed segments live (truncation off; manifests are still archived):
//   kRolled        the next segment created and empty, its manifest not
//                  yet published;
//   kNoneArchived  the manifest published, every retired segment still
//                  live;
//   kHalfArchived  the manifest published, every other retired segment
//                  renamed into the archive.
// In each, RestoreToPoint answers every point alike, read only; the
// reopen (truncation on) reads every acknowledged commit; its next
// checkpoint archives every retired segment under the bytes it had
// live, leaving one live segment; and every point still restores.
TEST_F(ArchiveTest, CrashStatesAroundArchivingCheckpointRestoreAlike) {
  enum class State { kRolled, kNoneArchived, kHalfArchived };
  std::string crash_dir = dir_ + "_crash";
  for (State state :
       {State::kRolled, State::kNoneArchived, State::kHalfArchived}) {
    SCOPED_TRACE(static_cast<int>(state));
    fs::remove_all(dir_);
    fs::remove_all(crash_dir);
    Oracle oracle;
    DurabilityOptions keep = ArchiveOpts();
    keep.truncate_log_after_checkpoint = false;
    uint64_t last_lsn = 0;
    {
      std::unique_ptr<Database> db;
      OpenWithTables(keep, &db);
      RunSchedule(db.get(), &oracle, 36, /*ckpt_every=*/9,
                  /*seed=*/40 + static_cast<uint32_t>(state));
      RunSchedule(db.get(), &oracle, 4, 0, /*seed=*/50);
      last_lsn = db->redo_log()->last_lsn();
    }
    fs::copy(dir_, crash_dir, fs::copy_options::recursive);
    std::vector<FramedLog::Segment> live;
    ASSERT_TRUE(FramedLog::ListSegments(crash_dir, &live).ok());
    ASSERT_EQ(live.size(), 5u);
    // Every closed segment's bytes, by first LSN.
    std::map<uint64_t, std::string> closed;
    for (const FramedLog::Segment& seg : live) {
      if (seg.hi == UINT64_MAX) continue;
      std::ifstream in(seg.path, std::ios::binary);
      closed[seg.lo].assign(std::istreambuf_iterator<char>(in), {});
    }
    if (state == State::kRolled) {
      std::ofstream(FramedLog::SegmentPath(crash_dir, last_lsn + 1));
    } else if (state == State::kHalfArchived) {
      for (size_t i = 0; i + 1 < live.size(); i += 2) {
        fs::rename(live[i].path, crash_dir + "/archive/redo." +
                                     std::to_string(live[i].lo) + "-" +
                                     std::to_string(live[i].hi) + ".arc");
      }
    }

    std::swap(dir_, crash_dir);  // the fixture reads dir_
    for (size_t i = 0; i < oracle.points.size(); i += 3) {
      VerifyPoint(oracle.points[i], oracle);
    }
    VerifyPoint(oracle.points.back(), oracle);
    {
      std::unique_ptr<Database> db;
      ASSERT_TRUE(Database::Open(dir_, ArchiveOpts(), &db).ok());
      const OraclePoint& acked = oracle.points.back();
      EXPECT_EQ(Snapshot(db->GetTable("A"), oracle.keys_a, acked.t + 1),
                acked.a);
      EXPECT_EQ(Snapshot(db->GetTable("B"), oracle.keys_b, acked.t + 1),
                acked.b);
      RunSchedule(db.get(), &oracle, 6, 0, /*seed=*/60);
      ASSERT_TRUE(db->Checkpoint().ok());
      std::vector<FramedLog::Segment> after;
      ASSERT_TRUE(FramedLog::ListSegments(dir_, &after).ok());
      EXPECT_EQ(after.size(), 1u);
      RunSchedule(db.get(), &oracle, 6, 0, /*seed=*/61);
    }
    size_t compared = 0;
    for (const FramedLog::Segment& seg :
         ArchiveManager::ListRedoSegments(dir_)) {
      auto it = closed.find(seg.lo);
      if (it == closed.end()) continue;
      std::ifstream in(seg.path, std::ios::binary);
      EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
                it->second)
          << seg.path;
      ++compared;
    }
    EXPECT_EQ(compared, closed.size());
    for (size_t i = 0; i < oracle.points.size(); i += 3) {
      VerifyPoint(oracle.points[i], oracle);
    }
    VerifyPoint(oracle.points.back(), oracle);
    std::swap(dir_, crash_dir);  // the fixture reads dir_
  }
  fs::remove_all(crash_dir);
}

// Files whose names look like segments but whose number passes
// UINT64_MAX are no segments: a parser that wrapped would read
// redo.1-(2^64 + 5).arc as LSNs [1, 5] and redo.(2^64 + 1).log as a
// live segment starting at LSN 1, breaking the chains. Restart and
// restore ignore them and leave them as they are.
TEST_F(ArchiveTest, OverlongSegmentNumbersAreNoSegments) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 30, 10, /*seed=*/9);
  }
  const std::string arc = ArchiveManager::ArchiveDirOf(dir_) +
                          "/redo.1-18446744073709551621.arc";
  const std::string log = dir_ + "/redo.18446744073709551617.log";
  std::ofstream(arc) << "not a segment";
  std::ofstream(log) << "not a segment";
  std::vector<FramedLog::Segment> segments;
  ASSERT_TRUE(FramedLog::ListSegments(dir_, &segments).ok());
  for (const FramedLog::Segment& seg : segments) EXPECT_NE(seg.path, log);
  for (const FramedLog::Segment& seg :
       ArchiveManager::ListRedoSegments(dir_)) {
    EXPECT_NE(seg.path, arc);
  }
  for (size_t i = 0; i < oracle.points.size(); i += 4) {
    VerifyPoint(oracle.points[i], oracle);
  }
  VerifyPoint(oracle.points.back(), oracle);
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    const OraclePoint& last = oracle.points.back();
    EXPECT_EQ(Snapshot(db->GetTable("A"), oracle.keys_a, last.t + 1),
              last.a);
    RunSchedule(db.get(), &oracle, 10, 5, /*seed=*/10);
  }
  EXPECT_TRUE(fs::exists(arc));
  EXPECT_TRUE(fs::exists(log));
  VerifyPoint(oracle.points.back(), oracle);
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, RetentionEvictsOldestEpochsOnly) {
  DurabilityOptions opts = ArchiveOpts();
  opts.archive_max_segments = 6;
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(opts, &db);
    RunSchedule(db.get(), &oracle, 80, 8, /*seed=*/5);
    // Every one of the 10 checkpoints timed its retention pass.
    const MetricsSnapshot m = db->Metrics();
    const auto* h = m.FindHistogram("lstore_archive_retention_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist.count, kTraceEnabled ? 10u : 0u);
  }
  // The policy held: segments were evicted down toward the cap.
  EXPECT_LE(ArchiveManager::ListRedoSegments(dir_).size(),
            6u + 1u);  // at most one fresh seal over
  ExpectRetentionFloorHolds(oracle);
}

TEST_F(ArchiveTest, RetentionByBytesEvictsOldestEpochsOnly) {
  // The same schedule unbounded first, to size the bound: half of
  // what it archives.
  uint64_t unbounded = 0;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    Oracle probe;
    RunSchedule(db.get(), &probe, 80, 8, /*seed=*/5);
    db.reset();
    unbounded = ArchiveBytes();
  }
  fs::remove_all(dir_);
  DurabilityOptions opts = ArchiveOpts();
  opts.archive_max_bytes = unbounded / 2;
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(opts, &db);
    RunSchedule(db.get(), &oracle, 80, 8, /*seed=*/5);
  }
  EXPECT_LE(ArchiveBytes(), opts.archive_max_bytes);  // the policy held
  ExpectRetentionFloorHolds(oracle);
}

TEST_F(ArchiveTest, RetentionByAgeEvictsOldestEpochsOnly) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 40, 8, /*seed=*/5);
  }
  // Age what the first run archived past the horizon; the resumed
  // run's checkpoints then evict it, oldest epoch first.
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(2);
  for (const auto& entry :
       fs::directory_iterator(ArchiveManager::ArchiveDirOf(dir_))) {
    fs::last_write_time(entry.path(), old);
  }
  DurabilityOptions opts = ArchiveOpts();
  opts.archive_max_age_seconds = 3600;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(opts, &db);
    RunSchedule(db.get(), &oracle, 40, 8, /*seed=*/6);
  }
  ExpectRetentionFloorHolds(oracle);
}

// An archived file retention cannot delete fails the checkpoint with
// an IOError naming it: the pass must not list and retry it forever
// while it holds the archive's lock.
TEST_F(ArchiveTest, RetentionReportsAFileItCannotDelete) {
  DurabilityOptions opts = ArchiveOpts();
  opts.archive_max_bytes = 1;
  std::unique_ptr<Database> db;
  OpenWithTables(opts, &db);
  Oracle oracle;
  RunSchedule(db.get(), &oracle, 16, 8, /*seed=*/8);
  // A non-empty directory named like a segment below every floor:
  // unlinking it fails (permission bits cannot, as root).
  const std::string blocker =
      ArchiveManager::ArchiveDirOf(dir_) + "/redo.1-1.arc";
  fs::create_directories(blocker + "/blocker");
  RunSchedule(db.get(), &oracle, 4, 0, /*seed=*/9);

  std::promise<Status> done;
  std::future<Status> result = done.get_future();
  std::thread checkpoint(
      [&done, d = db.get()] { done.set_value(d->Checkpoint()); });
  if (result.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // The checkpoint spins holding the archive's lock: end the process
    // rather than tear the database down under it.
    ADD_FAILURE() << "Checkpoint() did not return";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  checkpoint.join();
  Status s = result.get();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find(blocker), std::string::npos) << s.ToString();
  fs::remove_all(blocker);
}

TEST_F(ArchiveTest, ArchivingOffKeepsDeleteBehavior) {
  {
    std::unique_ptr<Database> db;
    OpenWithTables(DurabilityOptions{}, &db);
    Oracle oracle;
    RunSchedule(db.get(), &oracle, 20, 10, /*seed=*/1);
  }
  EXPECT_FALSE(fs::exists(ArchiveManager::ArchiveDirOf(dir_)));
  std::unique_ptr<Database> rdb;
  EXPECT_TRUE(
      Database::RestoreToPoint(dir_, RestorePoint::AtTime(5), &rdb)
          .IsNotFound());
}

// ---------------------------------------------------------------------------
// Segment moves
// ---------------------------------------------------------------------------

// A segment whose move into the archive fails stays live: the
// checkpoint reports the failure, a restart still reads the segment's
// commits, and the next checkpoint archives it with the segment it
// closes itself, leaving one live segment.
TEST_F(ArchiveTest, FailedSegmentMoveLeavesItLiveForTheNextCheckpoint) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    RunSchedule(db.get(), &oracle, 12, 6, /*seed=*/70);
    RunSchedule(db.get(), &oracle, 5, 0, /*seed=*/71);
    std::vector<FramedLog::Segment> live;
    ASSERT_TRUE(FramedLog::ListSegments(dir_, &live).ok());
    ASSERT_EQ(live.size(), 1u);
    // A non-empty directory at the segment's archive name: the rename
    // onto it fails.
    const FramedLog::Segment open = live[0];
    const std::string blocker = ArchiveManager::ArchiveDirOf(dir_) +
                                "/redo." + std::to_string(open.lo) + "-" +
                                std::to_string(db->redo_log()->last_lsn()) +
                                ".arc";
    fs::create_directories(blocker + "/blocker");
    Status s = db->Checkpoint();
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    ASSERT_TRUE(FramedLog::ListSegments(dir_, &live).ok());
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0].path, open.path);
    fs::remove_all(blocker);
  }
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    const OraclePoint& last = oracle.points.back();
    EXPECT_EQ(Snapshot(db->GetTable("A"), oracle.keys_a, last.t + 1),
              last.a);
    EXPECT_EQ(Snapshot(db->GetTable("B"), oracle.keys_b, last.t + 1),
              last.b);
    RunSchedule(db.get(), &oracle, 5, 0, /*seed=*/72);
    ASSERT_TRUE(db->Checkpoint().ok());
    std::vector<FramedLog::Segment> live;
    ASSERT_TRUE(FramedLog::ListSegments(dir_, &live).ok());
    EXPECT_EQ(live.size(), 1u);
  }
  for (const OraclePoint& p : oracle.points) VerifyPoint(p, oracle);
}

// Only "already moved" may pass silently when a superseded checkpoint
// file moves into the archive: any other failure would leave the file
// in the live directory for good, out of retention's reach.
TEST_F(ArchiveTest, FailedCheckpointFileMoveIsReported) {
  std::unique_ptr<Database> db;
  OpenWithTables(ArchiveOpts(), &db);
  Oracle oracle;
  RunSchedule(db.get(), &oracle, 10, 0, /*seed=*/3);
  ASSERT_TRUE(db->Checkpoint().ok());
  Manifest m;
  bool exists = false;
  ASSERT_TRUE(ReadManifest(dir_, &m, &exists).ok());
  ASSERT_TRUE(exists);
  ASSERT_FALSE(m.entries.empty());
  // A non-empty directory at the archive path of each checkpoint-1
  // file: moving the file there fails with EISDIR.
  for (const ManifestEntry& e : m.entries) {
    fs::create_directories(ArchiveManager::ArchiveDirOf(dir_) + "/" + e.file +
                           "/blocker");
  }
  RunSchedule(db.get(), &oracle, 10, 0, /*seed=*/4);
  Status s = db->Checkpoint();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(ArchiveTest, ManifestCarriesArchiveWatermarks) {
  std::unique_ptr<Database> db;
  OpenWithTables(ArchiveOpts(), &db);
  Oracle oracle;
  RunSchedule(db.get(), &oracle, 15, 0, /*seed=*/2);
  ASSERT_TRUE(db->Checkpoint().ok());
  Manifest m;
  bool exists = false;
  ASSERT_TRUE(ReadManifest(dir_, &m, &exists).ok());
  ASSERT_TRUE(exists);
  EXPECT_GT(m.capture_time, 0u);
  // Round-trips through the archived copy too.
  auto archived = ArchiveManager::ListManifests(dir_);
  ASSERT_EQ(archived.size(), 1u);
  Manifest am;
  ASSERT_TRUE(ReadManifestFile(archived.front().path, &am, &exists).ok());
  EXPECT_EQ(am.capture_time, m.capture_time);
  EXPECT_EQ(am.log_watermark, m.log_watermark);
  EXPECT_GT(m.log_watermark, 0u);
  EXPECT_EQ(am.checkpoint_id, m.checkpoint_id);
  // Dropping a table leaves the live manifest as it is (recovery skips
  // the entry, whose id the catalog no longer holds); the next
  // checkpoint publishes one without it, with both watermarks.
  ASSERT_TRUE(db->DropTable("B").ok());
  Manifest dropped;
  ASSERT_TRUE(ReadManifest(dir_, &dropped, &exists).ok());
  ASSERT_TRUE(exists);
  EXPECT_EQ(dropped.entries.size(), m.entries.size());
  ASSERT_TRUE(db->Checkpoint().ok());
  Manifest next;
  ASSERT_TRUE(ReadManifest(dir_, &next, &exists).ok());
  ASSERT_TRUE(exists);
  EXPECT_EQ(next.entries.size(), m.entries.size() - 1);
  EXPECT_GE(next.capture_time, m.capture_time);
  EXPECT_GE(next.log_watermark, m.log_watermark);
}

// Restoring to the newest commit and restarting are two sources for
// one recovery: both must rebuild the same rows and secondary index
// from a history with both tables, cross-table commits, an abort, a
// merge and a checkpoint.
// RestoreToPoint reads the live log of a database that is still open,
// its file pre-extended with zeros past the last frame: the restore
// ends the live log at the zero tail and returns the same rows as the
// oracle, by time and by commit LSN.
TEST_F(ArchiveTest, RestoreReadsAPreExtendedLiveLog) {
  Oracle oracle;
  std::unique_ptr<Database> db;
  OpenWithTables(ArchiveOpts(), &db);
  RunSchedule(db.get(), &oracle, 40, 12, /*seed=*/31);
  ASSERT_FALSE(ArchiveManager::ListRedoSegments(dir_).empty());
  std::vector<FramedLog::Segment> live;
  ASSERT_TRUE(FramedLog::ListSegments(dir_, &live).ok());
  ASSERT_EQ(live.size(), 1u);
  ASSERT_GT(fs::file_size(live[0].path), db->redo_log()->bytes());
  for (size_t i = 0; i < oracle.points.size(); i += 5) {
    VerifyPoint(oracle.points[i], oracle);
  }
  VerifyPoint(oracle.points.back(), oracle);
  // The newest commit that logged a record: past the last checkpoint,
  // so its commit record is in the live log.
  auto logged = std::find_if(
      oracle.points.rbegin(), oracle.points.rend(),
      [](const OraclePoint& p) { return p.commit_lsn != 0; });
  ASSERT_NE(logged, oracle.points.rend());
  const OraclePoint& last = *logged;
  ASSERT_GE(last.commit_lsn, live[0].lo);
  std::unique_ptr<Database> rdb;
  ASSERT_TRUE(Database::RestoreToPoint(
                  dir_, RestorePoint::AtCommitLsn(last.commit_lsn), &rdb)
                  .ok());
  EXPECT_EQ(Snapshot(rdb->GetTable("A"), oracle.keys_a, last.t + 1), last.a);
  EXPECT_EQ(Snapshot(rdb->GetTable("B"), oracle.keys_b, last.t + 1), last.b);
}

TEST_F(ArchiveTest, RestoreAtNewestPointEqualsRestart) {
  Oracle oracle;
  {
    std::unique_ptr<Database> db;
    OpenWithTables(ArchiveOpts(), &db);
    ASSERT_TRUE(db->CreateSecondaryIndex("A", 1).ok());
    RunSchedule(db.get(), &oracle, 30, 12, /*seed=*/11);
    Txn aborted = db->Begin();
    ASSERT_TRUE(db->GetTable("A")->Update(aborted, 100, 0b010, {0, 7, 0}).ok());
    ASSERT_TRUE(db->GetTable("B")->Insert(aborted, {9999, 7}).ok());
    aborted.Abort();
    RunSchedule(db.get(), &oracle, 6, 0, /*seed=*/12);
  }
  const std::string copy = dir_ + "_crash";
  fs::remove_all(copy);
  fs::copy(dir_, copy, fs::copy_options::recursive);

  std::unique_ptr<Database> rdb, odb;
  ASSERT_TRUE(Database::RestoreToPoint(
                  dir_, RestorePoint::AtTime(oracle.points.back().t), &rdb)
                  .ok());
  ASSERT_TRUE(Database::Open(copy, ArchiveOpts(), &odb).ok());
  for (const char* name : {"A", "B"}) {
    Table* r = rdb->GetTable(name);
    Table* o = odb->GetTable(name);
    ASSERT_NE(r, nullptr);
    ASSERT_NE(o, nullptr);
    const std::vector<Value>& keys =
        name[0] == 'A' ? oracle.keys_a : oracle.keys_b;
    EXPECT_EQ(Snapshot(r, keys, r->Now()), Snapshot(o, keys, o->Now()))
        << name;
    EXPECT_EQ(r->SecondaryColumns(), o->SecondaryColumns()) << name;
  }
  // The aborted transaction's insert exists in neither.
  Table* rb = rdb->GetTable("B");
  EXPECT_TRUE(Snapshot(rb, {9999}, rb->Now()).empty());
  Table* ob = odb->GetTable("B");
  EXPECT_TRUE(Snapshot(ob, {9999}, ob->Now()).empty());
  Table* ra = rdb->GetTable("A");
  Table* oa = odb->GetTable("A");
  EXPECT_EQ(ra->SecondaryColumns(), std::vector<ColumnId>{1});
  size_t hits = 0;
  for (const auto& [key, row] : Snapshot(oa, oracle.keys_a, oa->Now())) {
    std::vector<Value> rk, ok;
    ASSERT_TRUE(ra->NewQuery().Where(1, row[1]).Keys(&rk).ok());
    ASSERT_TRUE(oa->NewQuery().Where(1, row[1]).Keys(&ok).ok());
    EXPECT_EQ(rk, ok) << "A.v1 == " << row[1];
    hits += ok.size();
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace lstore
