// CheckpointManager: lineage-consistent snapshots, the durable
// manifest/catalog, redo-log truncation, and the optional background
// checkpoint trigger (timers on the database's executor).
//
// A checkpoint of a database directory proceeds as:
//   1. roll the database log (RedoLog::Roll): its last LSN becomes the
//      one watermark, and the open segment closes there, durable —
//      every record at or below it is already applied in memory, since
//      a write appends its record after applying it,
//   2. capture each table's state and write ckpt_<id>_<table>.ckpt
//      files (fsynced, checksummed) — any record the capture misses
//      has an LSN beyond the watermark and is replayed at recovery,
//   3. atomically publish MANIFEST via temp file + rename,
//   4. retire every closed segment at or below the watermark: delete
//      it, or with archiving on rename it into the archive (a crash
//      between 3 and 4, or midway through 4, leaves segments a restart
//      skips and the next checkpoint retires),
//   5. delete the previous checkpoint's files — a dropped table's
//      among them.
//
// The catalog (schema + config + id per table) is maintained
// separately by Database::CreateTable/DropTable, so tables created
// after the last checkpoint still recover from the log alone.

#ifndef LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_
#define LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace lstore {

class Database;
class Executor;
class SerialQueue;

/// One table's entry in the checkpoint manifest.
struct ManifestEntry {
  uint64_t table_id = 0;       ///< the table's catalog id
  std::string file;            ///< checkpoint file name, relative to dir
  uint64_t file_checksum = 0;  ///< crc32c of the checkpoint file
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
  /// Redo LSNs at or below this are covered by every entry's file:
  /// truncation retires the segments holding only them, and replay
  /// applies appends beyond it only.
  uint64_t log_watermark = 0;
  std::vector<ManifestEntry> entries;
};

/// One table's entry in the durable catalog.
struct CatalogEntry {
  uint64_t id = 0;  ///< names the table in log records and the manifest
  std::string name;
  std::vector<std::string> columns;
  TableConfig config;  ///< the restart-relevant fields (PutConfig)
  std::vector<ColumnId> secondary_columns;  ///< durable secondary indexes
};

/// The durable catalog: every table, and the id the next one gets. Ids
/// are never reused, so a recreated name never matches a dropped
/// table's log records or checkpoint.
struct Catalog {
  uint64_t next_id = 0;
  std::vector<CatalogEntry> entries;
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
Status WriteCatalog(const std::string& dir, const Catalog& catalog);
Status ReadCatalog(const std::string& dir, Catalog* catalog, bool* exists);

class CheckpointManager {
 public:
  CheckpointManager(Database* db, std::string dir, DurabilityOptions opts);

  /// Take one checkpoint now (synchronous; serialized against the
  /// background trigger).
  Status RunCheckpoint();

  /// Register the background trigger on `executor`: a timer per
  /// configured trigger (the interval; a poll of the log size). A due
  /// checkpoint is posted to `queue`, at most one at a time, never run
  /// on the timer thread; the interval counts from its end.
  void Schedule(Executor* executor, SerialQueue* queue);

  /// Seed bookkeeping from the manifest found at Open time.
  void SetRecoveredManifest(const Manifest& m);

  uint64_t checkpoints_taken() const;
  Status last_background_status() const;

 private:
  Database* db_;
  std::string dir_;
  DurabilityOptions opts_;
  /// Phase timings, resolved once in the database's registry.
  Histogram* capture_ns_;
  Histogram* truncate_ns_;

  /// "checkpointer" heartbeat: busy across each RunCheckpoint, beaten
  /// per captured table.
  std::shared_ptr<Heartbeat> hb_;
  /// A background checkpoint is posted or running.
  std::atomic<bool> queued_{false};
  std::mutex checkpoint_mu_;  ///< serializes RunCheckpoint
  mutable std::mutex mu_;     ///< guards the fields below
  uint64_t next_checkpoint_id_ = 1;
  std::vector<std::string> previous_files_;
  uint64_t checkpoints_taken_ = 0;
  Status last_background_status_;
  /// The interval trigger's executor timer (none: SIZE_MAX).
  size_t interval_timer_ = SIZE_MAX;
};

}  // namespace lstore

#endif  // LSTORE_CHECKPOINT_CHECKPOINT_MANAGER_H_
