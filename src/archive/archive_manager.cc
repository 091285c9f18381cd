#include "archive/archive_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <unordered_map>

#include "checkpoint/checkpoint_manager.h"
#include "common/file.h"
#include "obs/event_log.h"
#include "obs/span.h"

namespace lstore {

namespace fs = std::filesystem;

namespace {

constexpr char kArcSuffix[] = ".arc";
constexpr char kManifestPrefix[] = "MANIFEST.";
constexpr char kCommitStem[] = "commit";
constexpr char kRedoStemSuffix[] = ".redo";

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

uint64_t ParseU64(std::string_view s) {
  uint64_t v = 0;
  for (char c : s) v = v * 10 + static_cast<uint64_t>(c - '0');
  return v;
}

/// Parse "<stem>.<lo>-<hi>.arc"; false for anything else.
bool ParseArcName(std::string_view name, std::string* stem, uint64_t* lo,
                  uint64_t* hi) {
  if (name.size() <= sizeof(kArcSuffix) - 1 ||
      name.substr(name.size() - 4) != kArcSuffix) {
    return false;
  }
  name.remove_suffix(4);
  size_t dot = name.rfind('.');
  if (dot == std::string_view::npos) return false;
  std::string_view range = name.substr(dot + 1);
  size_t dash = range.find('-');
  if (dash == std::string_view::npos) return false;
  std::string_view lo_s = range.substr(0, dash);
  std::string_view hi_s = range.substr(dash + 1);
  if (!AllDigits(lo_s) || !AllDigits(hi_s)) return false;
  *stem = std::string(name.substr(0, dot));
  *lo = ParseU64(lo_s);
  *hi = ParseU64(hi_s);
  return *lo != 0 && *hi >= *lo;
}

std::string SegmentName(const std::string& stem, uint64_t lo, uint64_t hi) {
  return stem + "." + std::to_string(lo) + "-" + std::to_string(hi) +
         kArcSuffix;
}

uint64_t FileMtime(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_mtime)
                                        : 0;
}

struct RawSegment {
  std::string stem;
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
    if (!ParseArcName(name, &seg.stem, &seg.lo, &seg.hi)) continue;
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
  // A crash mid-seal leaves a .tmp whose content still lives in the
  // not-yet-truncated live log; sweeping it keeps the directory clean
  // and guarantees a stale temp can never shadow a future seal.
  for (const auto& entry : fs::directory_iterator(archive_dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rec;
      fs::remove(entry.path(), rec);
    }
  }
  return Status::OK();
}

void ArchiveManager::PruneSubsumed(const std::string& stem, uint64_t lo,
                                   uint64_t hi, const std::string& keep) {
  for (const RawSegment& seg : ListSegmentsRaw(archive_dir_)) {
    if (seg.stem != stem || seg.path == keep) continue;
    if (seg.lo >= lo && seg.hi <= hi) {
      // Fully covered by the new seal (a crash between an earlier seal
      // and its log truncation re-seals a longer prefix): every LSN it
      // carries replays identically from the superseding segment.
      std::remove(seg.path.c_str());
    }
  }
}

Status ArchiveManager::SealSegment(const std::string& name,
                                   std::string_view bytes) {
  Stage stage(seal_ns_, nullptr);
  std::string path = archive_dir_ + "/" + name;
  LSTORE_RETURN_IF_ERROR(
      WriteFileAtomic(path, [bytes](File& f) { return f.WriteAt(0, bytes); }));
  std::string stem;
  uint64_t lo = 0, hi = 0;
  if (ParseArcName(name, &stem, &lo, &hi)) {
    PruneSubsumed(stem, lo, hi, path);
  }
  if (seals_total_ != nullptr) seals_total_->Add(1);
  return Status::OK();
}

Status ArchiveManager::SealRedoPrefix(const std::string& table, uint64_t lo,
                                      uint64_t hi, std::string_view bytes) {
  std::lock_guard<std::mutex> g(mu_);
  Status s = SealSegment(SegmentName(table + kRedoStemSuffix, lo, hi), bytes);
  if (s.ok() && events_ != nullptr) {
    events_->Emit(EventSeverity::kInfo, "archive", "archive_seal",
                  "\"log\":\"" + JsonEscape(table) + ".redo\",\"lo\":" +
                      std::to_string(lo) + ",\"hi\":" + std::to_string(hi) +
                      ",\"bytes\":" + std::to_string(bytes.size()));
  }
  return s;
}

Status ArchiveManager::SealCommitPrefix(uint64_t lo, uint64_t hi,
                                        std::string_view bytes) {
  std::lock_guard<std::mutex> g(mu_);
  Status s = SealSegment(SegmentName(kCommitStem, lo, hi), bytes);
  if (s.ok() && events_ != nullptr) {
    events_->Emit(EventSeverity::kInfo, "archive", "archive_seal",
                  "\"log\":\"commit\",\"lo\":" + std::to_string(lo) +
                      ",\"hi\":" + std::to_string(hi) +
                      ",\"bytes\":" + std::to_string(bytes.size()));
  }
  return s;
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

std::vector<ArchiveSegment> ArchiveManager::ListRedoSegments(
    const std::string& db_dir, const std::string& table) {
  std::vector<ArchiveSegment> out;
  std::string want = table + kRedoStemSuffix;
  for (const RawSegment& seg : ListSegmentsRaw(ArchiveDirOf(db_dir))) {
    if (seg.stem != want) continue;
    out.push_back(ArchiveSegment{seg.lo, seg.hi, seg.path});
  }
  return out;
}

std::vector<ArchiveSegment> ArchiveManager::ListCommitSegments(
    const std::string& db_dir) {
  std::vector<ArchiveSegment> out;
  for (const RawSegment& seg : ListSegmentsRaw(ArchiveDirOf(db_dir))) {
    if (seg.stem != kCommitStem) continue;
    out.push_back(ArchiveSegment{seg.lo, seg.hi, seg.path});
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
    std::string_view id = std::string_view(name).substr(
        sizeof(kManifestPrefix) - 1);
    if (!AllDigits(id)) continue;
    out.push_back(ArchivedManifest{ParseU64(id), entry.path().string()});
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

void ArchiveManager::ForgetTable(const std::string& table) {
  std::lock_guard<std::mutex> g(mu_);
  std::string want = table + kRedoStemSuffix;
  for (const RawSegment& seg : ListSegmentsRaw(archive_dir_)) {
    if (seg.stem == want) std::remove(seg.path.c_str());
  }
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
    // or below ITS watermarks only serve points older than the oldest
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

    std::unordered_map<std::string, uint64_t> watermarks;
    for (const ManifestEntry& e : floor.entries) {
      watermarks[e.table] = e.log_watermark;
    }
    bool dropped = false;
    for (const RawSegment& seg : segments) {
      uint64_t mark = 0;
      if (seg.stem == kCommitStem) {
        mark = floor.commit_log_mark;
      } else if (seg.stem.size() > sizeof(kRedoStemSuffix) - 1 &&
                 seg.stem.substr(seg.stem.size() -
                                 (sizeof(kRedoStemSuffix) - 1)) ==
                     kRedoStemSuffix) {
        std::string table = seg.stem.substr(
            0, seg.stem.size() - (sizeof(kRedoStemSuffix) - 1));
        auto it = watermarks.find(table);
        if (it == watermarks.end()) continue;  // not covered by the floor
        mark = it->second;
      } else {
        continue;
      }
      if (seg.hi <= mark) {
        std::remove(seg.path.c_str());
        if (events_ != nullptr) {
          events_->Emit(EventSeverity::kInfo, "archive", "retention_evict",
                        "\"what\":\"segment\",\"stem\":\"" +
                            JsonEscape(seg.stem) + "\",\"lo\":" +
                            std::to_string(seg.lo) + ",\"hi\":" +
                            std::to_string(seg.hi));
        }
        dropped = true;
      }
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
    std::remove(manifests.front().path.c_str());
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
