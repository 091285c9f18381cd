#include "archive/archive_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>

#include "checkpoint/checkpoint_manager.h"
#include "common/file.h"
#include "obs/event_log.h"
#include "obs/span.h"

namespace lstore {

namespace fs = std::filesystem;

namespace {

constexpr char kArcSuffix[] = ".arc";
constexpr char kManifestPrefix[] = "MANIFEST.";
constexpr char kRedoPrefix[] = "redo.";

/// Parse "redo.<lo>-<hi>.arc"; false for anything else.
bool ParseArcName(std::string_view name, uint64_t* lo, uint64_t* hi) {
  constexpr size_t kPrefix = sizeof(kRedoPrefix) - 1;
  constexpr size_t kSuffix = sizeof(kArcSuffix) - 1;
  if (name.size() <= kPrefix + kSuffix ||
      name.substr(0, kPrefix) != kRedoPrefix ||
      name.substr(name.size() - kSuffix) != kArcSuffix) {
    return false;
  }
  std::string_view range =
      name.substr(kPrefix, name.size() - kPrefix - kSuffix);
  size_t dash = range.find('-');
  if (dash == std::string_view::npos) return false;
  return ParseDecimal(range.substr(0, dash), lo) &&
         ParseDecimal(range.substr(dash + 1), hi) && *lo != 0 && *hi >= *lo;
}

std::string SegmentName(uint64_t lo, uint64_t hi) {
  return kRedoPrefix + std::to_string(lo) + "-" + std::to_string(hi) +
         kArcSuffix;
}

/// Unlink `path`; a file already gone is fine (another pass took it).
Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("cannot delete archived file: " + path);
  }
  return Status::OK();
}

uint64_t FileMtime(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_mtime)
                                        : 0;
}

struct RawSegment {
  uint64_t lo = 0, hi = 0;
  std::string path;
  uint64_t bytes = 0;
  uint64_t mtime = 0;
};

std::vector<RawSegment> ListSegmentsRaw(const std::string& archive_dir) {
  std::vector<RawSegment> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(archive_dir, ec)) {
    RawSegment seg;
    std::string name = entry.path().filename().string();
    if (!ParseArcName(name, &seg.lo, &seg.hi)) continue;
    seg.path = entry.path().string();
    std::error_code sec;
    seg.bytes = static_cast<uint64_t>(fs::file_size(entry.path(), sec));
    seg.mtime = FileMtime(seg.path);
    out.push_back(std::move(seg));
  }
  std::sort(out.begin(), out.end(),
            [](const RawSegment& a, const RawSegment& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
  return out;
}

}  // namespace

ArchiveManager::ArchiveManager(std::string db_dir, DurabilityOptions opts)
    : db_dir_(std::move(db_dir)),
      archive_dir_(ArchiveDirOf(db_dir_)),
      opts_(opts) {}

std::string ArchiveManager::ArchiveDirOf(const std::string& db_dir) {
  return db_dir + "/archive";
}

Status ArchiveManager::EnsureDir() {
  std::error_code ec;
  fs::create_directories(archive_dir_, ec);
  if (ec) {
    return Status::IOError("cannot create archive directory: " + archive_dir_);
  }
  return Status::OK();
}

Status ArchiveManager::ArchiveSegment(const FramedLog::Segment& seg) {
  std::lock_guard<std::mutex> g(mu_);
  Stage stage(seal_ns_, nullptr);
  LSTORE_RETURN_IF_ERROR(RenameDurably(
      seg.path, archive_dir_ + "/" + SegmentName(seg.lo, seg.hi)));
  if (seals_total_ != nullptr) seals_total_->Add(1);
  if (events_ != nullptr) {
    events_->Emit(EventSeverity::kInfo, "archive", "archive_seal",
                  "\"log\":\"redo\",\"lo\":" + std::to_string(seg.lo) +
                      ",\"hi\":" + std::to_string(seg.hi));
  }
  return Status::OK();
}

Status ArchiveManager::ArchiveManifestCopy(uint64_t checkpoint_id) {
  std::lock_guard<std::mutex> g(mu_);
  std::string bytes;
  LSTORE_RETURN_IF_ERROR(ReadFile(ManifestPath(db_dir_), &bytes));
  return WriteFileAtomic(
      archive_dir_ + "/" + kManifestPrefix + std::to_string(checkpoint_id),
      [&bytes](File& f) { return f.WriteAt(0, bytes); });
}

Status ArchiveManager::ArchiveCheckpointFile(const std::string& file) {
  std::lock_guard<std::mutex> g(mu_);
  Status s = RenameDurably(db_dir_ + "/" + file, archive_dir_ + "/" + file);
  // Already moved (crash replay) or never written.
  return s.IsNotFound() ? Status::OK() : s;
}

// ---------------------------------------------------------------------------
// Listings
// ---------------------------------------------------------------------------

std::vector<FramedLog::Segment> ArchiveManager::ListRedoSegments(
    const std::string& db_dir) {
  std::vector<FramedLog::Segment> out;
  for (const RawSegment& seg : ListSegmentsRaw(ArchiveDirOf(db_dir))) {
    out.push_back(FramedLog::Segment{seg.lo, seg.hi, seg.path});
  }
  return out;
}

std::vector<ArchivedManifest> ArchiveManager::ListManifests(
    const std::string& db_dir) {
  std::vector<ArchivedManifest> out;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(ArchiveDirOf(db_dir), ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(kManifestPrefix, 0) != 0) continue;
    uint64_t id = 0;
    if (!ParseDecimal(
            std::string_view(name).substr(sizeof(kManifestPrefix) - 1), &id)) {
      continue;
    }
    out.push_back(ArchivedManifest{id, entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const ArchivedManifest& a, const ArchivedManifest& b) {
              return a.id < b.id;
            });
  return out;
}

std::string ArchiveManager::ResolveCheckpointFile(const std::string& db_dir,
                                                  const std::string& file) {
  std::string live = db_dir + "/" + file;
  if (FileExists(live)) return live;
  std::string archived = ArchiveDirOf(db_dir) + "/" + file;
  if (FileExists(archived)) return archived;
  return "";
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

Status ArchiveManager::EnforceRetention() {
  if (!enabled()) return Status::OK();
  if (opts_.archive_max_bytes == 0 && opts_.archive_max_segments == 0 &&
      opts_.archive_max_age_seconds == 0) {
    return Status::OK();
  }
  Stage stage(retention_ns_, nullptr);
  std::lock_guard<std::mutex> g(mu_);
  uint64_t now = static_cast<uint64_t>(::time(nullptr));

  for (;;) {
    // Snapshot the archive state.
    std::vector<RawSegment> segments = ListSegmentsRaw(archive_dir_);
    std::vector<ArchivedManifest> manifests = ListManifests(db_dir_);
    uint64_t bytes = 0, oldest_mtime = UINT64_MAX;
    for (const RawSegment& s : segments) {
      bytes += s.bytes;
      oldest_mtime = std::min(oldest_mtime, s.mtime);
    }
    std::error_code ec;
    for (const ArchivedManifest& m : manifests) {
      bytes += static_cast<uint64_t>(fs::file_size(m.path, ec));
      oldest_mtime = std::min(oldest_mtime, FileMtime(m.path));
    }
    for (const auto& entry : fs::directory_iterator(archive_dir_, ec)) {
      if (entry.path().extension() == ".ckpt") {
        std::error_code sec;
        bytes += static_cast<uint64_t>(fs::file_size(entry.path(), sec));
      }
    }

    bool violated =
        (opts_.archive_max_bytes != 0 && bytes > opts_.archive_max_bytes) ||
        (opts_.archive_max_segments != 0 &&
         segments.size() > opts_.archive_max_segments) ||
        (opts_.archive_max_age_seconds != 0 && oldest_mtime != UINT64_MAX &&
         oldest_mtime + opts_.archive_max_age_seconds < now);
    if (!violated) return Status::OK();

    // Evict the oldest restore epoch. The floor is the oldest retained
    // manifest (archived, falling back to the live one): segments at
    // or below ITS watermark only serve points older than the oldest
    // restorable checkpoint, so they go first; once none remain, the
    // oldest archived manifest itself (with its checkpoint files) is
    // retired — unless it IS the live checkpoint, which always stays.
    Manifest floor;
    bool exists = false;
    if (!manifests.empty()) {
      LSTORE_RETURN_IF_ERROR(
          ReadManifestFile(manifests.front().path, &floor, &exists));
    } else {
      LSTORE_RETURN_IF_ERROR(ReadManifest(db_dir_, &floor, &exists));
    }
    if (!exists) return Status::OK();  // nothing to anchor eviction on

    bool dropped = false;
    for (const RawSegment& seg : segments) {
      if (seg.hi > floor.log_watermark) continue;
      LSTORE_RETURN_IF_ERROR(RemoveFile(seg.path));
      if (events_ != nullptr) {
        events_->Emit(EventSeverity::kInfo, "archive", "retention_evict",
                      "\"what\":\"segment\",\"lo\":" +
                          std::to_string(seg.lo) + ",\"hi\":" +
                          std::to_string(seg.hi));
      }
      dropped = true;
    }
    if (dropped) continue;

    // No below-floor segments left: retire the floor manifest itself.
    if (manifests.empty()) return Status::OK();
    Manifest live;
    bool live_exists = false;
    LSTORE_RETURN_IF_ERROR(ReadManifest(db_dir_, &live, &live_exists));
    if (live_exists && live.checkpoint_id == manifests.front().id) {
      return Status::OK();  // the current epoch is never evicted
    }
    // Manifest first, then its checkpoint files: a crash in between
    // leaves unreferenced .ckpt orphans (reclaimed on the next pass),
    // never a manifest pointing at deleted files.
    LSTORE_RETURN_IF_ERROR(RemoveFile(manifests.front().path));
    for (const ManifestEntry& e : floor.entries) {
      std::remove((archive_dir_ + "/" + e.file).c_str());
    }
    if (events_ != nullptr) {
      events_->Emit(EventSeverity::kInfo, "archive", "retention_evict",
                    "\"what\":\"epoch\",\"checkpoint_id\":" +
                        std::to_string(manifests.front().id));
    }
  }
}

}  // namespace lstore
