// Point-in-time recovery: Database::RestoreToPoint.
//
// A restore is restart recovery (Database::Recover) over a different
// source. Only the choice of inputs lives here:
//   1. the horizon T: the restore point, an inclusive commit time, or
//      the LSN of a commit record resolved to its commit time by
//      scanning the one file (sealed segment or live log) holding it,
//   2. the checkpoint: the newest manifest (live or archived) whose
//      capture_time watermark proves it contains no commit beyond T;
//      with none, the restore starts from the empty state,
//   3. the redo stream: the sealed segments and the live log stitched
//      into one LSN-continuous stream from the checkpoint's watermark
//      (a gap at the front means retention evicted the point —
//      NotFound; a gap in the middle or a torn segment is Corruption;
//      overlaps replay once), read only.
// The shared step then replays that stream into every cataloged table,
// folding its commit and abort records into one outcome map up to T
// (a transaction lands on all of its tables or none), and resumes the
// clock past the newest included commit, so the restored database's
// Now() IS the point: commits at or before T are visible, everything
// later never happened.
//
// The restored Database is in-memory (no logs, no checkpoints); the
// target directory is only read — checkpoint-referenced base segments
// map lazily onto a read-only handle of the table's .segs store.

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "common/file.h"
#include "core/database.h"
#include "log/framed_log.h"
#include "log/redo_log.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// Verify a sealed segment really carries LSNs up to the hi its name
/// claims: a torn tail or truncated file scans clean-short and would
/// otherwise silently drop committed records into the stitch.
Status ValidateSegment(const ArchiveSegment& seg) {
  FramedLog::ScanStats stats;
  Status s = FramedLog::ScanFile(seg.path, &RedoLog::ValidatePayload, nullptr,
                                 &stats);
  if (!s.ok()) {
    return Status::IOError("cannot read archive segment: " + seg.path);
  }
  if (!stats.clean_end || stats.last_lsn != seg.hi ||
      stats.bytes_consumed == 0) {
    return Status::Corruption("torn or truncated archive segment: " +
                              seg.path);
  }
  return Status::OK();
}

/// Select the segments that cover (from, ...] and verify the chain is
/// LSN-continuous through to the live log's truncation base. Subsumed
/// segments are skipped; partial overlaps stay (replay filters by LSN
/// and the writes are idempotent).
Status StitchSegments(const std::vector<ArchiveSegment>& segments,
                      uint64_t from, const std::string& live_path,
                      std::vector<std::string>* paths) {
  uint64_t covered = from;
  bool first_needed = true;
  for (const ArchiveSegment& seg : segments) {
    if (seg.hi <= covered) continue;  // below the watermark or subsumed
    if (seg.lo > covered + 1) {
      // LSNs (covered, seg.lo) are gone. At the very front of the
      // chain that means retention (or never-enabled archiving) aged
      // the point out; mid-chain it means a segment vanished.
      return first_needed
                 ? Status::NotFound(
                       "restore point precedes the archived history")
                 : Status::Corruption("gap in archived log segments before " +
                                      seg.path);
    }
    LSTORE_RETURN_IF_ERROR(ValidateSegment(seg));
    paths->push_back(seg.path);
    covered = seg.hi;
    first_needed = false;
  }
  if (FileExists(live_path)) {
    uint64_t live_base = FramedLog::ReadBaseLsn(live_path);
    if (live_base > covered) {
      return first_needed
                 ? Status::NotFound(
                       "restore point precedes the archived history")
                 : Status::Corruption(
                       "gap between archived segments and live log: " +
                       live_path);
    }
    paths->push_back(live_path);
  }
  return Status::OK();
}

/// The commit time of the commit record at `lsn`: scans the sealed
/// segments that hold that LSN, then the live log. NotFound when no
/// file holds a commit record there.
Status CommitTimeAt(const std::vector<ArchiveSegment>& segments,
                    const std::string& live_path, uint64_t lsn,
                    Timestamp* commit_time) {
  std::vector<std::string> files;
  for (const ArchiveSegment& seg : segments) {
    if (seg.lo <= lsn && lsn <= seg.hi) files.push_back(seg.path);
  }
  if (FileExists(live_path)) files.push_back(live_path);
  *commit_time = 0;
  for (const std::string& path : files) {
    LSTORE_RETURN_IF_ERROR(RedoLog::Replay(
        path,
        [lsn, commit_time](const LogRecord& rec, uint64_t at) {
          if (at == lsn && rec.type == LogRecordType::kCommit) {
            *commit_time = rec.commit_time;
          }
        },
        nullptr));
    if (*commit_time != 0) return Status::OK();
  }
  return Status::NotFound("no commit record at LSN " + std::to_string(lsn));
}

}  // namespace

Status Database::RestoreToPoint(const std::string& dir,
                                const RestorePoint& point,
                                std::unique_ptr<Database>* out) {
  // Manual timing: the duration lands in the RESTORED database's
  // registry, which only exists on the success path.
  const uint64_t restore_t0 = Stage::Now();
  Catalog catalog;
  bool catalog_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadCatalog(dir, &catalog, &catalog_exists));
  if (!catalog_exists) {
    return Status::NotFound("not a durable database directory: " + dir);
  }

  // --- step 1: the horizon ------------------------------------------------
  const std::vector<ArchiveSegment> segments =
      ArchiveManager::ListRedoSegments(dir);
  const std::string live = RedoLogPath(dir);
  RecoverySource src;
  src.dir = dir;
  src.horizon = point.commit_time;
  if (point.commit_lsn != 0) {
    LSTORE_RETURN_IF_ERROR(
        CommitTimeAt(segments, live, point.commit_lsn, &src.horizon));
  }
  const Timestamp T = src.horizon;
  if (T == 0) {
    return Status::InvalidArgument(
        "restore point needs a commit_time or commit_lsn");
  }

  // --- step 2: newest checkpoint provably at or before the point ----------
  // capture_time is a STRICT upper bound on every stamped commit time
  // in the checkpoint, so capture_time <= T + 1 proves nothing beyond T
  // is baked in. With none, the restore starts empty.
  auto qualifies = [T](const Manifest& m) {
    return m.capture_time != 0 && m.capture_time <= T + 1;
  };
  bool exists = false;
  LSTORE_RETURN_IF_ERROR(ReadManifest(dir, &src.manifest, &exists));
  if (!exists || !qualifies(src.manifest)) {
    src.manifest = Manifest{};
    std::vector<ArchivedManifest> archived = ArchiveManager::ListManifests(dir);
    for (auto it = archived.rbegin(); it != archived.rend(); ++it) {
      Manifest m;
      LSTORE_RETURN_IF_ERROR(ReadManifestFile(it->path, &m, &exists));
      if (exists && qualifies(m)) {
        src.manifest = std::move(m);
        break;
      }
    }
  }

  // --- steps 3+4: the one recovery step over the stitched stream ----------
  std::vector<std::string> stream;
  LSTORE_RETURN_IF_ERROR(StitchSegments(
      segments, src.manifest.log_watermark, live, &stream));
  src.stream = &stream;
  auto db = std::unique_ptr<Database>(new Database());
  LSTORE_RETURN_IF_ERROR(db->Recover(catalog, src));

  Histogram* restore_ns = db->metrics_.GetHistogram(
      "lstore_restore_ns", "Point-in-time restore duration (ns)");
  Stage::Record(restore_ns, nullptr, 0, restore_t0, Stage::Now() - restore_t0);

  *out = std::move(db);
  return Status::OK();
}

}  // namespace lstore
