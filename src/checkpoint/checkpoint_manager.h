// CheckpointManager: lineage-consistent snapshots, the durable
// manifest/catalog, redo-log truncation, and the optional background
// checkpoint trigger.
//
// A checkpoint of a database directory proceeds as:
//   1. quiesce through the database commit log: inside the
//      group-commit window (so no commit is half-way between its
//      table-log flushes and its commit-log flush), fsync every
//      table's redo log and record its last LSN as the table's
//      watermark, then fsync the commit log and record its position,
//   2. capture each table's state and write ckpt_<id>_<table>.ckpt
//      files (fsynced, checksummed) — any record the capture misses
//      has an LSN beyond its watermark and is replayed at recovery,
//   3. atomically publish MANIFEST via temp file + rename,
//   4. truncate each redo log to its watermark, then drop the commit
//      log's covered prefix (records whose participants all sit at or
//      below their watermarks; crash between 3 and 4 merely leaves
//      extra log records whose replay is idempotent),
//   5. delete the previous checkpoint's files.
//
// The catalog (schema + config per table) is maintained separately by
// Database::CreateTable/DropTable, so tables created after the last
// checkpoint still recover from their logs alone.

#ifndef LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_
#define LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace lstore {

class Database;

/// One table's entry in the checkpoint manifest.
struct ManifestEntry {
  std::string table;
  std::string file;            ///< checkpoint file name, relative to dir
  uint64_t file_checksum = 0;  ///< crc32c of the checkpoint file
  uint64_t log_watermark = 0;  ///< redo LSNs <= this are covered
  std::vector<ColumnId> secondary_columns;
};

struct Manifest {
  uint64_t checkpoint_id = 0;
  /// Archive watermark: a strict upper bound on every commit time the
  /// checkpoint's files can contain (a SnapshotNow taken after the
  /// capture completed; 0 = pre-archive manifest). RestoreToPoint may
  /// start from this checkpoint for any point T with
  /// capture_time <= T + 1 — everything stamped in it then lies at or
  /// before T, and the stitched log replay supplies the rest.
  Timestamp capture_time = 0;
  /// Archive watermark: commit-log LSNs at or below this are fully
  /// covered by the checkpoint (their participants' outcomes are
  /// stamped in the captured state). Truncation drops them; a restore
  /// starting here needs commit records beyond this mark only.
  uint64_t commit_log_mark = 0;
  std::vector<ManifestEntry> entries;
};

/// One table's entry in the durable catalog.
struct CatalogEntry {
  std::string name;
  std::vector<std::string> columns;
  TableConfig config;  ///< logging fields are re-derived at Open
  std::vector<ColumnId> secondary_columns;  ///< durable secondary indexes
};

/// Manifest / catalog files (temp + atomic rename). A missing file
/// reports *exists = false with an OK status; a malformed one fails
/// with Corruption.
/// Path of the live manifest under a database directory — the single
/// home of the file name, shared by checkpointing, archiving, and
/// restore.
std::string ManifestPath(const std::string& dir);

Status WriteManifest(const std::string& dir, const Manifest& m);
Status ReadManifest(const std::string& dir, Manifest* m, bool* exists);
/// Read a manifest by full path (archived copies under <dir>/archive
/// are plain manifest files named MANIFEST.<id>).
Status ReadManifestFile(const std::string& path, Manifest* m, bool* exists);
Status WriteCatalog(const std::string& dir,
                    const std::vector<CatalogEntry>& entries);
Status ReadCatalog(const std::string& dir, std::vector<CatalogEntry>* entries,
                   bool* exists);

class CheckpointManager {
 public:
  CheckpointManager(Database* db, std::string dir, DurabilityOptions opts);
  ~CheckpointManager();

  /// Take one checkpoint now (synchronous; serialized against the
  /// background trigger).
  Status RunCheckpoint();

  /// Start/stop the background trigger thread (no-op when neither the
  /// interval nor the log-size trigger is configured).
  void Start();
  void Stop();

  /// Seed bookkeeping from the manifest found at Open time.
  void SetRecoveredManifest(const Manifest& m);

  /// Remove `table` from the durable manifest and delete its
  /// checkpoint files. Called on DropTable, and on CreateTable before
  /// reusing a name: a stale entry would otherwise be matched by name
  /// at the next Open and resurrect the dropped table's data (its
  /// watermark also exceeds the fresh log's LSNs, which would mask
  /// every new record).
  Status ForgetTable(const std::string& table);

  uint64_t checkpoints_taken() const;
  Status last_background_status() const;

 private:
  void Loop();
  uint64_t TotalLogBytes() const;

  Database* db_;
  std::string dir_;
  DurabilityOptions opts_;
  /// Phase timings, resolved once in the database's registry.
  Histogram* capture_ns_;
  Histogram* truncate_ns_;

  /// "checkpointer" heartbeat: busy across each RunCheckpoint, beaten
  /// per captured table and per background poll.
  std::shared_ptr<Heartbeat> hb_;
  std::mutex checkpoint_mu_;  ///< serializes RunCheckpoint
  mutable std::mutex mu_;     ///< guards the fields below
  std::condition_variable cv_;
  std::thread worker_;
  bool running_ = false;
  uint64_t next_checkpoint_id_ = 1;
  std::vector<std::string> previous_files_;
  uint64_t checkpoints_taken_ = 0;
  Status last_background_status_;
};

}  // namespace lstore

#endif  // LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_
