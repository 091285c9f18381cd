// Log archiving: turns checkpoint truncation from deletion into
// archival, so the database can be restored to any archived commit
// point (Database::RestoreToPoint).
//
// Layout under <db_dir>/archive/:
//   redo.<lo>-<hi>.arc           sealed prefix of the database's one
//                                redo log covering LSNs [lo, hi] — a
//                                self-describing framed file (leading
//                                truncation point), so it replays
//                                through RedoLog::Replay, the read-only
//                                scan (the live log replays as it
//                                opens, RedoLog::Open)
//   MANIFEST.<id>                the manifest as published by
//                                checkpoint <id> (carries the archive
//                                watermarks: capture_time +
//                                log_watermark)
//   ckpt_<id>_<table>.ckpt       superseded checkpoint files, moved
//                                here instead of deleted
//
// Every seal is atomic (tmp + rename + directory fsync) and happens
// BEFORE the truncated log is published, so a crash anywhere in the
// checkpoint sequence loses nothing: the prefix exists in the archive,
// the live log, or both — overlapping segments from a crash replay
// idempotently and are pruned by the next seal that subsumes them.
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
#include "obs/metrics.h"

namespace lstore {

class EventLog;

/// One sealed log segment, parsed from its file name.
struct ArchiveSegment {
  uint64_t lo = 0;     ///< first LSN the segment carries
  uint64_t hi = 0;     ///< last LSN the segment carries
  std::string path;    ///< absolute path
};

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

  /// Wire registry metrics: seal counts/durations and retention-pass
  /// durations. Call before concurrent use (Database::Open does).
  void set_metrics(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    seals_total_ = registry->GetCounter("lstore_archive_seals_total",
                                        "Log prefixes sealed into segments");
    seal_ns_ = registry->GetHistogram("lstore_archive_seal_ns",
                                      "Segment seal duration (ns)");
    retention_ns_ = registry->GetHistogram(
        "lstore_archive_retention_ns", "Retention enforcement pass (ns)");
  }

  /// Wire the engine event log (nullable): seals emit `archive_seal`,
  /// retention deletions emit `retention_evict`. Call before
  /// concurrent use (Database::Open does, next to set_metrics).
  void set_event_log(EventLog* events) { events_ = events; }

  /// Create the archive directory and sweep stale .tmp files (a crash
  /// mid-seal leaves at most one; the sealed data still lives in the
  /// not-yet-truncated log). Called once at Database::Open.
  Status EnsureDir();

  /// Seal the retired prefix of the redo log covering [lo, hi]
  /// (FramedLog::SealSink contract: bytes are durable on OK return).
  /// Segments this one subsumes are pruned afterwards.
  Status SealRedoPrefix(uint64_t lo, uint64_t hi, std::string_view bytes);

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

  /// Sealed redo segments, sorted by lo.
  static std::vector<ArchiveSegment> ListRedoSegments(
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
  /// Serializes mutations (seals, retention) — checkpoints already
  /// serialize them, this is belt-and-braces for direct test use.
  std::mutex mu_;
  Counter* seals_total_ = nullptr;
  Histogram* seal_ns_ = nullptr;
  Histogram* retention_ns_ = nullptr;
  EventLog* events_ = nullptr;
};

}  // namespace lstore

#endif  // LSTORE_ARCHIVE_ARCHIVE_MANAGER_H_
