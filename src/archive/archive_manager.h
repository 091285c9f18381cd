// Log archiving: turns checkpoint truncation from deletion into
// archival, so the database can be restored to any archived commit
// point (Database::RestoreToPoint).
//
// Layout under <db_dir>/archive/:
//   redo.<lo>-<hi>.arc           a closed segment of the database's one
//                                redo log, carrying LSNs [lo, hi],
//                                renamed here whole from the live
//                                redo.<lo>.log once a checkpoint's
//                                watermark covers it — the same bytes,
//                                so it replays through the same scan
//                                (RedoLog::Replay)
//   MANIFEST.<id>                the manifest as published by
//                                checkpoint <id> (carries the archive
//                                watermarks: capture_time +
//                                log_watermark)
//   ckpt_<id>_<table>.ckpt       superseded checkpoint files, moved
//                                here instead of deleted
//
// Every move is a durable rename (RenameDurably), so each log segment
// lies in the archive or in the live directory, never both, and a
// crash midway through a checkpoint's moves leaves the rest live for
// the next one to archive.
//
// Retention (DurabilityOptions::archive_max_*) evicts whole restore
// epochs oldest-first: the oldest archived manifest, its checkpoint
// files, and exactly the segments that only serve points older than
// the next retained manifest — those at or below its one watermark,
// never a segment newer than the oldest restorable checkpoint.

#ifndef LSTORE_ARCHIVE_ARCHIVE_MANAGER_H_
#define LSTORE_ARCHIVE_ARCHIVE_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "log/framed_log.h"
#include "obs/metrics.h"

namespace lstore {

class EventLog;

/// One archived manifest, parsed from its file name.
struct ArchivedManifest {
  uint64_t id = 0;
  std::string path;
};

class ArchiveManager {
 public:
  ArchiveManager(std::string db_dir, DurabilityOptions opts);

  bool enabled() const { return opts_.archive_enabled; }
  const std::string& archive_dir() const { return archive_dir_; }

  /// Wire registry metrics: seal (segment move) counts/durations and
  /// retention-pass durations. Call before concurrent use
  /// (Database::Open does).
  void set_metrics(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    seals_total_ = registry->GetCounter("lstore_archive_seals_total",
                                        "Closed log segments archived");
    seal_ns_ = registry->GetHistogram("lstore_archive_seal_ns",
                                      "Segment archive move duration (ns)");
    retention_ns_ = registry->GetHistogram(
        "lstore_archive_retention_ns", "Retention enforcement pass (ns)");
  }

  /// Wire the engine event log (nullable): seals emit `archive_seal`,
  /// retention deletions emit `retention_evict`. Call before
  /// concurrent use (Database::Open does, next to set_metrics).
  void set_event_log(EventLog* events) { events_ = events; }

  /// Create the archive directory. Called once at Database::Open.
  Status EnsureDir();

  /// Move the closed live log segment `seg` (its lo and hi known) to
  /// redo.<lo>-<hi>.arc, durably. On failure it stays live, and the
  /// next checkpoint retires it again.
  Status ArchiveSegment(const FramedLog::Segment& seg);

  /// Copy the just-published live MANIFEST to MANIFEST.<id> (atomic),
  /// making checkpoint `id` a restorable epoch boundary.
  Status ArchiveManifestCopy(uint64_t checkpoint_id);

  /// Move a superseded checkpoint file into the archive (it is still
  /// referenced by the archived manifests). A missing source is
  /// ignored — a crash may have moved it already; any other failure
  /// is returned, since the file would otherwise stay in the live
  /// directory, out of reach of retention.
  Status ArchiveCheckpointFile(const std::string& file);

  /// Apply the retention policy (no-op when every limit is 0).
  Status EnforceRetention();

  // --- restore-side listings (static: need no live database) ---------------

  static std::string ArchiveDirOf(const std::string& db_dir);

  /// Archived redo segments, sorted by lo.
  static std::vector<FramedLog::Segment> ListRedoSegments(
      const std::string& db_dir);

  /// Archived manifests, sorted by checkpoint id.
  static std::vector<ArchivedManifest> ListManifests(
      const std::string& db_dir);

  /// Resolve a checkpoint file name against the live directory, then
  /// the archive; empty string when absent from both.
  static std::string ResolveCheckpointFile(const std::string& db_dir,
                                           const std::string& file);

 private:
  std::string db_dir_;
  std::string archive_dir_;
  DurabilityOptions opts_;
  /// Serializes mutations (moves, retention) — checkpoints already
  /// serialize them, this is belt-and-braces for direct test use.
  std::mutex mu_;
  Counter* seals_total_ = nullptr;
  Histogram* seal_ns_ = nullptr;
  Histogram* retention_ns_ = nullptr;
  EventLog* events_ = nullptr;
};

}  // namespace lstore

#endif  // LSTORE_ARCHIVE_ARCHIVE_MANAGER_H_
