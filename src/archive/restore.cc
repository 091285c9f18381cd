// Point-in-time recovery: Database::RestoreToPoint.
//
// A restore is restart recovery (Database::Recover) over a different
// source. Only the choice of inputs lives here:
//   1. the horizon T: the restore point, an inclusive commit time, or
//      the LSN of a commit record resolved to its commit time by
//      scanning the one segment (archived or live) holding it,
//   2. the checkpoint: the newest manifest (live or archived) whose
//      capture_time watermark proves it contains no commit beyond T;
//      with none, the restore starts from the empty state,
//   3. the redo stream: the archived and the live segments, one chain
//      ordered by first LSN, from the one holding the LSN after the
//      checkpoint's watermark (a gap at the front means retention
//      evicted the point — NotFound; the chain rule of
//      FramedLog::ScanChain makes a gap in the middle or a torn segment
//      Corruption), read only.
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

#include <algorithm>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "common/file.h"
#include "core/database.h"
#include "log/framed_log.h"
#include "log/redo_log.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// The archived and the live log segments of `dir` holding LSNs
/// above `from`, as one chain ascending by lo (FramedLog::Link: a crash
/// midway through a checkpoint's moves may leave them interleaved);
/// NotFound when the first begins past from + 1 (retention, or
/// archiving never on, dropped the LSNs in between).
Status Chain(const std::string& dir, uint64_t from,
             std::vector<FramedLog::Segment>* chain) {
  *chain = ArchiveManager::ListRedoSegments(dir);
  std::vector<FramedLog::Segment> live;
  LSTORE_RETURN_IF_ERROR(FramedLog::ListSegments(dir, &live));
  chain->insert(chain->end(), live.begin(), live.end());
  FramedLog::Link(chain);
  chain->erase(chain->begin(),
               std::find_if(chain->begin(), chain->end(),
                            [from](const FramedLog::Segment& s) {
                              return s.hi > from;
                            }));
  if (chain->empty() || chain->front().lo > from + 1) {
    return Status::NotFound("restore point precedes the archived history");
  }
  return Status::OK();
}

/// The commit time of the commit record at `lsn`, read from the one
/// segment holding it. NotFound when no commit record is there.
Status CommitTimeAt(const std::string& dir, uint64_t lsn,
                    Timestamp* commit_time) {
  std::vector<FramedLog::Segment> chain;
  *commit_time = 0;
  Status s = Chain(dir, lsn - 1, &chain);
  if (s.ok()) {
    chain.resize(1);
    LSTORE_RETURN_IF_ERROR(RedoLog::Replay(
        chain,
        [lsn, commit_time](const LogRecord& rec, uint64_t at) {
          if (at == lsn && rec.type == LogRecordType::kCommit) {
            *commit_time = rec.commit_time;
          }
        },
        nullptr));
  }
  if (*commit_time != 0) return Status::OK();
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
  RecoverySource src;
  src.dir = dir;
  src.horizon = point.commit_time;
  if (point.commit_lsn != 0) {
    LSTORE_RETURN_IF_ERROR(CommitTimeAt(dir, point.commit_lsn, &src.horizon));
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
  std::vector<FramedLog::Segment> stream;
  LSTORE_RETURN_IF_ERROR(Chain(dir, src.manifest.log_watermark, &stream));
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
