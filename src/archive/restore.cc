// Point-in-time recovery: Database::RestoreToPoint.
//
// A restore point T (an inclusive commit time, or a commit-log LSN
// resolved to one) is rebuilt as:
//   1. collect every commit-log record — sealed commit segments in LSN
//      order, then the live COMMIT_LOG — and fold them into ONE
//      outcome map truncated at T (abort markers stay authoritative);
//      every table replays against this map, so a cross-table
//      transaction lands on all of its participants or none,
//   2. pick the newest checkpoint manifest (archived or live) whose
//      capture_time watermark proves it contains no commit beyond T;
//      with none, the restore starts from the empty state,
//   3. per table: stitch the sealed redo segments and the live log
//      into one LSN-continuous stream from the checkpoint watermark
//      (a gap at the front means retention evicted the point —
//      NotFound; a gap in the middle or a torn segment is Corruption;
//      overlaps replay idempotently), and run the ordinary restart
//      recovery over the stitched stream with the outcome horizon T,
//   4. fast-forward the clock past every included commit, so the
//      restored database's Now() IS the point: commits at or before T
//      are visible, everything later never happened.
//
// The restored Database is in-memory (no logs, no checkpoints); the
// target directory is only read — checkpoint-referenced base segments
// map lazily onto a read-only handle of the table's .segs store.

#include <algorithm>
#include <map>
#include <unordered_map>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "common/file.h"
#include "core/database.h"
#include "core/table.h"
#include "log/commit_log.h"
#include "log/framed_log.h"
#include "log/redo_log.h"
#include "obs/span.h"

namespace lstore {

namespace {

/// Verify a sealed segment really carries LSNs up to the hi its name
/// claims: a torn tail or truncated file scans clean-short and would
/// otherwise silently drop committed records into the stitch.
Status ValidateSegment(const ArchiveSegment& seg,
                       const FramedLog::Codec& codec) {
  FramedLog::ScanStats stats;
  Status s = FramedLog::ScanFile(seg.path, codec, nullptr, &stats);
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
                      const FramedLog::Codec& codec,
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
    LSTORE_RETURN_IF_ERROR(ValidateSegment(seg, codec));
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

}  // namespace

Status Database::RestoreToPoint(const std::string& dir,
                                const RestorePoint& point,
                                std::unique_ptr<Database>* out) {
  // Manual timing: the duration lands in the RESTORED database's
  // registry, which only exists on the success path.
  const uint64_t restore_t0 = Stage::Now();
  std::vector<CatalogEntry> catalog;
  bool catalog_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadCatalog(dir, &catalog, &catalog_exists));
  if (!catalog_exists) {
    return Status::NotFound("not a durable database directory: " + dir);
  }

  // --- step 1: one cross-table outcome map, truncated at the point --------
  std::vector<ArchiveSegment> commit_segments =
      ArchiveManager::ListCommitSegments(dir);
  for (const ArchiveSegment& seg : commit_segments) {
    LSTORE_RETURN_IF_ERROR(
        ValidateSegment(seg, &CommitLog::ValidatePayload));
  }
  // Ordered by LSN so later abort markers override, and overlapping
  // segments (crash between seal and truncate) dedup naturally.
  std::map<uint64_t, CommitLogRecord> commit_records;
  auto collect = [&commit_records](const CommitLogRecord& rec, uint64_t lsn) {
    commit_records[lsn] = rec;
  };
  for (const ArchiveSegment& seg : commit_segments) {
    LSTORE_RETURN_IF_ERROR(CommitLog::Replay(seg.path, collect));
  }
  const std::string commit_live = dir + "/COMMIT_LOG";
  LSTORE_RETURN_IF_ERROR(CommitLog::Replay(commit_live, collect));

  Timestamp T = point.commit_time;
  if (point.commit_lsn != 0) {
    auto it = commit_records.find(point.commit_lsn);
    if (it == commit_records.end() || it->second.aborted) {
      return Status::NotFound("no committed commit-log record at LSN " +
                              std::to_string(point.commit_lsn));
    }
    T = it->second.commit_time;
  }
  if (T == 0) {
    return Status::InvalidArgument(
        "restore point needs a commit_time or commit_lsn");
  }

  std::unordered_map<TxnId, Timestamp> db_commits;
  for (const auto& [lsn, rec] : commit_records) {
    (void)lsn;
    if (rec.aborted) {
      // Authoritative: the commit record's flush failed and the client
      // saw the abort — regardless of any restore point.
      db_commits.erase(rec.txn_id);
    } else if (rec.commit_time <= T) {
      db_commits[rec.txn_id] = rec.commit_time;
    }
  }

  // --- step 2: newest checkpoint provably at or before the point ----------
  Manifest chosen;
  bool have_manifest = false;
  {
    Manifest live;
    bool exists = false;
    LSTORE_RETURN_IF_ERROR(ReadManifest(dir, &live, &exists));
    // capture_time is a STRICT upper bound on every stamped commit
    // time in the checkpoint, so capture_time <= T + 1 proves nothing
    // beyond T is baked in. A pre-archive manifest (capture_time 0)
    // proves nothing and never qualifies.
    auto qualifies = [T](const Manifest& m) {
      return m.capture_time != 0 && m.capture_time <= T + 1;
    };
    if (exists && qualifies(live)) {
      chosen = std::move(live);
      have_manifest = true;
    }
    if (!have_manifest) {
      std::vector<ArchivedManifest> archived =
          ArchiveManager::ListManifests(dir);
      for (auto it = archived.rbegin(); it != archived.rend(); ++it) {
        Manifest m;
        bool m_exists = false;
        LSTORE_RETURN_IF_ERROR(ReadManifestFile(it->path, &m, &m_exists));
        if (m_exists && qualifies(m)) {
          chosen = std::move(m);
          have_manifest = true;
          break;
        }
      }
    }
  }

  // Commit-record coverage: the stitch must reach from the chosen
  // checkpoint's commit-log mark to the live log without a hole
  // (records below the mark are stamped into the checkpoint itself).
  {
    std::vector<std::string> unused;
    LSTORE_RETURN_IF_ERROR(StitchSegments(
        commit_segments, have_manifest ? chosen.commit_log_mark : 0,
        commit_live, &CommitLog::ValidatePayload, &unused));
  }

  // --- steps 3+4: per-table stitched recovery ------------------------------
  auto db = std::unique_ptr<Database>(new Database());
  for (const CatalogEntry& ce : catalog) {
    TableConfig cfg = ce.config;
    cfg.enable_logging = false;
    cfg.log_path.clear();
    cfg.sync_commit = false;
    cfg.buffer_pool = nullptr;
    cfg.segment_store = nullptr;
    std::string segs_path = dir + "/" + ce.name + ".segs";
    if (FileExists(segs_path)) {
      auto store = std::make_unique<SegmentStore>();
      LSTORE_RETURN_IF_ERROR(store->Open(segs_path, /*read_only=*/true));
      cfg.segment_store = store.get();
      db->segment_stores_[ce.name] = std::move(store);
    }

    Table* t;
    {
      SpinGuard g(db->latch_);
      db->tables_.push_back(Entry{
          ce.name, std::make_unique<Table>(ce.name, Schema(ce.columns),
                                           std::move(cfg),
                                           &db->txn_manager_)});
      db->tables_.back().table->txn_scope_ = db.get();
      t = db->tables_.back().table.get();
    }

    const ManifestEntry* me = nullptr;
    if (have_manifest) {
      for (const ManifestEntry& e : chosen.entries) {
        if (e.table == ce.name) me = &e;
      }
    }
    std::string ckpt_path;
    uint64_t watermark = 0, checksum = 0;
    if (me != nullptr) {
      ckpt_path = ArchiveManager::ResolveCheckpointFile(dir, me->file);
      if (ckpt_path.empty()) {
        return Status::Corruption("checkpoint file missing: " + me->file);
      }
      watermark = me->log_watermark;
      checksum = me->file_checksum;
    }

    std::vector<std::string> paths;
    LSTORE_RETURN_IF_ERROR(
        StitchSegments(ArchiveManager::ListRedoSegments(dir, ce.name),
                       watermark, dir + "/" + ce.name + ".log",
                       &RedoLog::ValidatePayload, &paths));
    LSTORE_RETURN_IF_ERROR(t->RecoverDurable(ckpt_path, watermark, checksum,
                                             &db_commits, &paths, T));

    std::vector<ColumnId> secs = ce.secondary_columns;
    if (me != nullptr) {
      secs.insert(secs.end(), me->secondary_columns.begin(),
                  me->secondary_columns.end());
    }
    std::sort(secs.begin(), secs.end());
    secs.erase(std::unique(secs.begin(), secs.end()), secs.end());
    for (ColumnId col : secs) t->CreateSecondaryIndex(col);
  }

  // The clock lands just past the newest included commit, so Now()
  // reads see exactly the state at the point — mirrors Open's resume,
  // bounded by T instead of the full history.
  Timestamp max_commit = 0;
  for (const auto& [txn, ct] : db_commits) {
    (void)txn;
    if (ct > max_commit) max_commit = ct;
  }
  if (max_commit > 0) db->txn_manager_.clock().AdvanceTo(max_commit + 1);

  Histogram* restore_ns = db->metrics_.GetHistogram(
      "lstore_restore_ns", "Point-in-time restore duration (ns)");
  Stage::Record(restore_ns, nullptr, 0, restore_t0, Stage::Now() - restore_t0);

  *out = std::move(db);
  return Status::OK();
}

}  // namespace lstore
