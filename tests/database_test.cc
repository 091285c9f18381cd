// Database facade tests: table registry, shared clock/manager, atomic
// multi-table transactions, and refusal of on-disk formats this build
// does not write.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "checkpoint/serde.h"
#include "common/checksum.h"
#include "common/file.h"
#include "core/database.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

TableConfig Cfg() {
  TableConfig cfg;
  cfg.range_size = 64;
  cfg.enable_merge_thread = false;
  return cfg;
}

TEST(DatabaseTest, CreateGetDropTables) {
  Database db;
  EXPECT_TRUE(db.CreateTable("a", Schema(3), Cfg()).ok());
  EXPECT_TRUE(db.CreateTable("b", Schema(4), Cfg()).ok());
  EXPECT_TRUE(db.CreateTable("a", Schema(3), Cfg()).IsAlreadyExists());
  EXPECT_NE(db.GetTable("a"), nullptr);
  EXPECT_EQ(db.GetTable("c"), nullptr);
  EXPECT_EQ(db.TableNames().size(), 2u);
  EXPECT_TRUE(db.DropTable("b").ok());
  EXPECT_TRUE(db.DropTable("b").IsNotFound());
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(DatabaseTest, TablesShareTheClock) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(3), Cfg()).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema(3), Cfg()).ok());
  Table* a = db.GetTable("a");
  Table* b = db.GetTable("b");
  EXPECT_EQ(&a->txn_manager(), &b->txn_manager());
  Timestamp t1 = a->txn_manager().clock().Tick();
  Timestamp t2 = b->txn_manager().clock().Tick();
  EXPECT_LT(t1, t2);
}

TEST(DatabaseTest, CrossTableTransactionCommitsAtomically) {
  Database db;
  ASSERT_TRUE(db.CreateTable("accounts", Schema(2), Cfg()).ok());
  ASSERT_TRUE(db.CreateTable("audit", Schema(2), Cfg()).ok());
  Table* accounts = db.GetTable("accounts");
  Table* audit = db.GetTable("audit");

  Txn txn = db.Begin();
  ASSERT_TRUE(accounts->Insert(txn, {1, 500}).ok());
  ASSERT_TRUE(audit->Insert(txn, {100, 1}).ok());

  // Before commit: invisible in BOTH tables.
  Txn peek = db.Begin();
  std::vector<Value> out;
  EXPECT_TRUE(accounts->Read(peek, 1, 0b11, &out).IsNotFound());
  EXPECT_TRUE(audit->Read(peek, 100, 0b11, &out).IsNotFound());
  ASSERT_TRUE(peek.Commit().ok());

  ASSERT_TRUE(txn.Commit().ok());

  // After commit: visible in BOTH.
  Txn check = db.Begin();
  EXPECT_TRUE(accounts->Read(check, 1, 0b11, &out).ok());
  EXPECT_EQ(out[1], 500u);
  EXPECT_TRUE(audit->Read(check, 100, 0b11, &out).ok());
  EXPECT_EQ(out[1], 1u);
  ASSERT_TRUE(check.Commit().ok());
}

TEST(DatabaseTest, CrossTableAbortRollsBackEverything) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(2), Cfg()).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema(2), Cfg()).ok());
  Table* a = db.GetTable("a");
  Table* b = db.GetTable("b");
  {
    Txn setup = db.Begin();
    ASSERT_TRUE(a->Insert(setup, {1, 10}).ok());
    ASSERT_TRUE(b->Insert(setup, {1, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn txn = db.Begin();
  ASSERT_TRUE(a->Update(txn, 1, 0b10, {0, 11}).ok());
  ASSERT_TRUE(b->Update(txn, 1, 0b10, {0, 21}).ok());
  txn.Abort();

  Txn check = db.Begin();
  std::vector<Value> out;
  ASSERT_TRUE(a->Read(check, 1, 0b10, &out).ok());
  EXPECT_EQ(out[1], 10u);
  ASSERT_TRUE(b->Read(check, 1, 0b10, &out).ok());
  EXPECT_EQ(out[1], 20u);
  ASSERT_TRUE(check.Commit().ok());
}

TEST(DatabaseTest, CrossTableSerializableValidation) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(2), Cfg()).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema(2), Cfg()).ok());
  Table* a = db.GetTable("a");
  Table* b = db.GetTable("b");
  {
    Txn setup = db.Begin();
    ASSERT_TRUE(a->Insert(setup, {1, 10}).ok());
    ASSERT_TRUE(b->Insert(setup, {1, 20}).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  // t1 reads from table a; a concurrent writer invalidates that read;
  // t1's write to table b must not commit (cross-table consistency).
  Txn t1 = db.Begin(IsolationLevel::kSerializable);
  std::vector<Value> out;
  ASSERT_TRUE(a->Read(t1, 1, 0b10, &out).ok());
  ASSERT_TRUE(b->Update(t1, 1, 0b10, {0, out[1] + 100}).ok());

  Txn t2 = db.Begin();
  ASSERT_TRUE(a->Update(t2, 1, 0b10, {0, 99}).ok());
  ASSERT_TRUE(t2.Commit().ok());

  EXPECT_TRUE(t1.Commit().IsAborted());
  // b unchanged.
  Txn check = db.Begin();
  ASSERT_TRUE(b->Read(check, 1, 0b10, &out).ok());
  EXPECT_EQ(out[1], 20u);
  ASSERT_TRUE(check.Commit().ok());
}

TEST(DatabaseTest, SingleTableCommitStillWorksThroughTable) {
  // Transactions confined to one table may commit through the table
  // directly, even when it belongs to a database.
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(2), Cfg()).ok());
  Table* a = db.GetTable("a");
  Txn txn = a->Begin();
  ASSERT_TRUE(a->Insert(txn, {5, 50}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  Txn check = a->Begin();
  std::vector<Value> out;
  ASSERT_TRUE(a->Read(check, 5, 0b10, &out).ok());
  EXPECT_EQ(out[1], 50u);
  ASSERT_TRUE(check.Commit().ok());
}

// One of everything a table counts: inserts, an update, a delete, a
// read one tail hop away, a write-write conflict, a validation abort,
// an insert merge, an update merge retiring segments, and a historic
// compression.
void ExerciseTableCounters(Table* t) {
  Txn load = t->Begin();
  ASSERT_TRUE(t->InsertBatch(load, {{1, 10}, {2, 20}, {3, 30}}).ok());
  ASSERT_TRUE(load.Commit().ok());
  ASSERT_TRUE(t->InsertMergeNow(0));
  Txn w = t->Begin();
  ASSERT_TRUE(t->Update(w, 1, 0b10, {0, 11}).ok());
  ASSERT_TRUE(t->Delete(w, 3).ok());
  ASSERT_TRUE(w.Commit().ok());

  Txn reader = t->Begin(IsolationLevel::kSerializable);
  std::vector<Value> out;
  ASSERT_TRUE(t->Read(reader, 1, 0b10, &out).ok());
  EXPECT_EQ(out[1], 11u);
  Txn a = t->Begin();
  Txn b = t->Begin();
  ASSERT_TRUE(t->Update(a, 1, 0b10, {0, 12}).ok());
  EXPECT_TRUE(t->Update(b, 1, 0b10, {0, 13}).IsAborted());
  b.Abort();
  ASSERT_TRUE(a.Commit().ok());
  EXPECT_TRUE(reader.Commit().IsAborted());

  ASSERT_TRUE(t->MergeRangeNow(0));
  EXPECT_GT(t->CompressHistoricNow(0), 0u);
}

// Tables of one database share its registry, so each folded table
// counter reaches the wire export once, summed over the tables.
TEST(DatabaseMetricsTest, TableCountersSumOverTables) {
  Table solo("solo", Schema(2), Cfg());
  ExerciseTableCounters(&solo);
  const MetricsSnapshot one = solo.metrics()->Snapshot();

  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema(2), Cfg()).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema(2), Cfg()).ok());
  ExerciseTableCounters(db.GetTable("a"));
  ExerciseTableCounters(db.GetTable("b"));
  const std::string prom = db.Metrics().RenderPrometheus();
  for (const char* name :
       {"lstore_reads_total", "lstore_inserts_total", "lstore_updates_total",
        "lstore_deletes_total", "lstore_ww_conflicts_total",
        "lstore_validation_aborts_total", "lstore_tail_chain_hops_total",
        "lstore_segments_retired_total", "lstore_update_merges_total",
        "lstore_insert_merges_total", "lstore_historic_compressions_total",
        "lstore_merge_rows_consolidated_total"}) {
    const uint64_t per_table = one.CounterValue(name);
    EXPECT_GT(per_table, 0u) << name;
    const std::string sample =
        "\n" + std::string(name) + " " + std::to_string(2 * per_table) + "\n";
    EXPECT_NE(prom.find(sample), std::string::npos) << name;
  }
}

// Flip every checksum of a [len varint][payload][u32 checksum] framed
// file, as a build with another checksum function would have written
// it. Returns the number of frames.
int ForeignChecksums(const std::string& path) {
  std::string data;
  EXPECT_TRUE(ReadFile(path, &data).ok()) << path;
  int frames = 0;
  size_t pos = 0;
  uint64_t len = 0;
  while (pos < data.size() && GetVarint64(data, &pos, &len) &&
         pos + len + sizeof(uint32_t) <= data.size()) {
    pos += len;
    uint32_t crc;
    std::memcpy(&crc, data.data() + pos, sizeof(crc));
    crc ^= 0x5a5a5a5au;
    std::memcpy(data.data() + pos, &crc, sizeof(crc));
    pos += sizeof(crc);
    ++frames;
  }
  EXPECT_EQ(pos, data.size()) << path;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
  return frames;
}

// A directory whose frames carry checksums this build does not compute
// (an earlier build's) is refused with Corruption at the CATALOG, which
// is read before any log is opened: the logs' torn-tail repair never
// sees them, so not one of their bytes is cut as "corrupt".
TEST(DatabaseFormatTest, ForeignChecksumDirectoryIsRefusedBeforeAnyLog) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_foreign_checksums";
  std::filesystem::remove_all(dir);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_TRUE(db->CreateTable("a", Schema(2), Cfg()).ok());
    ASSERT_TRUE(db->CreateTable("b", Schema(2), Cfg()).ok());
    Txn both = db->Begin();  // cross-table: a COMMIT_LOG record
    ASSERT_TRUE(db->GetTable("a")->Insert(both, {1, 10}).ok());
    ASSERT_TRUE(db->GetTable("b")->Insert(both, {2, 20}).ok());
    ASSERT_TRUE(both.Commit().ok());
    Txn one = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(one, {3, 30}).ok());
    ASSERT_TRUE(one.Commit().ok());
  }
  const std::string logs[] = {dir + "/a.log", dir + "/b.log",
                              dir + "/COMMIT_LOG"};
  EXPECT_GT(ForeignChecksums(dir + "/CATALOG"), 0);
  std::string before[3];
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(ForeignChecksums(logs[i]), 0) << logs[i];
    ASSERT_TRUE(ReadFile(logs[i], &before[i]).ok());
  }

  std::unique_ptr<Database> db;
  Status s = Database::Open(dir, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(db, nullptr);
  for (int i = 0; i < 3; ++i) {
    std::string after;
    ASSERT_TRUE(ReadFile(logs[i], &after).ok());
    EXPECT_EQ(after, before[i]) << logs[i];
  }
  std::filesystem::remove_all(dir);
}


/// Rewrite the format version in the file header frame (the first
/// frame: magic and version varints) of `path`, re-sealing its CRC.
void SetFormatVersion(const std::string& path, uint8_t version) {
  std::string data;
  ASSERT_TRUE(ReadFile(path, &data).ok()) << path;
  size_t pos = 0;
  uint64_t len = 0, magic = 0;
  ASSERT_TRUE(GetVarint64(data, &pos, &len));
  const size_t body = pos;
  pos += 1;  // frame type
  ASSERT_TRUE(GetVarint64(data, &pos, &magic));
  ASSERT_EQ(static_cast<uint8_t>(data[pos]), kCheckpointFormatVersion) << path;
  data[pos] = static_cast<char>(version);
  const uint32_t crc = Crc32c(data.data() + body, len);
  std::memcpy(data.data() + body + len, &crc, sizeof(crc));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
}

// A directory written in the previous checkpoint format (version 1:
// base segments as varints) is refused with Corruption at the CATALOG,
// before any log is opened or cut; its checkpoint and MANIFEST carry
// the old version too, so no reader would take their segments for the
// current form.
TEST(DatabaseFormatTest, OlderFormatVersionIsRefusedBeforeAnyLog) {
  const std::string dir =
      std::string(::testing::TempDir()) + "lstore_format_v1";
  std::filesystem::remove_all(dir);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, &db).ok());
    ASSERT_TRUE(db->CreateTable("a", Schema(2), Cfg()).ok());
    Txn txn = db->Begin();
    for (Value k = 0; k < 100; ++k) {
      ASSERT_TRUE(db->GetTable("a")->Insert(txn, {k, k * 10}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    db->GetTable("a")->FlushAll();
    ASSERT_TRUE(db->Checkpoint().ok());
    Txn more = db->Begin();
    ASSERT_TRUE(db->GetTable("a")->Insert(more, {1000, 1}).ok());
    ASSERT_TRUE(more.Commit().ok());
  }
  int checkpoints = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".ckpt") {
      SetFormatVersion(e.path().string(), 1);
      ++checkpoints;
    }
  }
  ASSERT_EQ(checkpoints, 1);
  SetFormatVersion(dir + "/CATALOG", 1);
  SetFormatVersion(dir + "/MANIFEST", 1);
  std::string before;
  ASSERT_TRUE(ReadFile(dir + "/a.log", &before).ok());
  ASSERT_FALSE(before.empty());

  std::unique_ptr<Database> db;
  Status s = Database::Open(dir, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(db, nullptr);
  std::string after;
  ASSERT_TRUE(ReadFile(dir + "/a.log", &after).ok());
  EXPECT_EQ(after, before);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lstore
