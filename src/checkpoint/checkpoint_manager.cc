#include "checkpoint/checkpoint_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "archive/archive_manager.h"
#include "checkpoint/serde.h"
#include "common/file.h"
#include "core/commit_pipeline.h"
#include "core/database.h"
#include "core/table.h"
#include "log/commit_log.h"
#include "log/redo_log.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

constexpr char kManifestFile[] = "MANIFEST";
constexpr char kCatalogFile[] = "CATALOG";

/// Pack the restart-relevant TableConfig fields (logging fields are
/// re-derived from the directory at Open time).
void PutConfig(std::string* p, const TableConfig& c) {
  PutVarint64(p, c.range_size);
  PutVarint64(p, c.base_page_slots);
  PutVarint64(p, c.tail_page_slots);
  PutVarint64(p, c.merge_threshold);
  PutVarint64(p, c.merge_fanin);
  PutVarint64(p, c.insert_range_size);
  uint64_t flags = (c.cumulative_updates ? 1u : 0) |
                   (c.compress_merged_pages ? 2u : 0) |
                   (c.enable_merge_thread ? 4u : 0);
  PutVarint64(p, flags);
}

bool GetConfig(std::string_view p, size_t* pos, TableConfig* c) {
  uint64_t v, flags;
  if (!GetU64(p, pos, &v)) return false;
  c->range_size = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &v)) return false;
  c->base_page_slots = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &v)) return false;
  c->tail_page_slots = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &v)) return false;
  c->merge_threshold = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &v)) return false;
  c->merge_fanin = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &v)) return false;
  c->insert_range_size = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &flags)) return false;
  c->cumulative_updates = (flags & 1u) != 0;
  c->compress_merged_pages = (flags & 2u) != 0;
  c->enable_merge_thread = (flags & 4u) != 0;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestFile;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  return WriteFileAtomic(ManifestPath(dir), [&](File& f) {
    FrameWriter w(&f, kManifestMagic);
    std::string p;
    PutVarint64(&p, m.checkpoint_id);
    PutVarint64(&p, m.entries.size());
    PutVarint64(&p, m.capture_time);
    PutVarint64(&p, m.commit_log_mark);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kManifestHeader, p));
    for (const ManifestEntry& e : m.entries) {
      std::string q;
      PutString(&q, e.table);
      PutString(&q, e.file);
      PutVarint64(&q, e.file_checksum);
      PutVarint64(&q, e.log_watermark);
      PutVarint64(&q, e.secondary_columns.size());
      for (ColumnId c : e.secondary_columns) PutVarint64(&q, c);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kManifestEntry, q));
    }
    return w.Finish();
  });
}

Status ReadManifest(const std::string& dir, Manifest* m, bool* exists) {
  return ReadManifestFile(ManifestPath(dir), m, exists);
}

Status ReadManifestFile(const std::string& path, Manifest* m, bool* exists) {
  *exists = FileExists(path);
  if (!*exists) return Status::OK();
  FrameReader r;
  LSTORE_RETURN_IF_ERROR(r.Open(path, kManifestMagic));
  uint64_t expected_entries = 0;
  bool header_seen = false;
  FrameType type;
  std::string_view p;
  while (r.Next(&type, &p)) {
    size_t pos = 0;
    if (type == FrameType::kManifestHeader) {
      if (!GetU64(p, &pos, &m->checkpoint_id) ||
          !GetU64(p, &pos, &expected_entries)) {
        return Status::Corruption("bad manifest header");
      }
      // Archive watermarks (absent in pre-archive manifests = 0).
      if (pos < p.size() &&
          (!GetU64(p, &pos, &m->capture_time) ||
           !GetU64(p, &pos, &m->commit_log_mark))) {
        return Status::Corruption("bad manifest header");
      }
      header_seen = true;
    } else if (type == FrameType::kManifestEntry) {
      ManifestEntry e;
      uint64_t nsec;
      if (!GetString(p, &pos, &e.table) || !GetString(p, &pos, &e.file) ||
          !GetU64(p, &pos, &e.file_checksum) ||
          !GetU64(p, &pos, &e.log_watermark) || !GetU64(p, &pos, &nsec)) {
        return Status::Corruption("bad manifest entry");
      }
      for (uint64_t i = 0; i < nsec; ++i) {
        uint64_t c;
        if (!GetU64(p, &pos, &c)) return Status::Corruption("bad manifest");
        e.secondary_columns.push_back(static_cast<ColumnId>(c));
      }
      m->entries.push_back(std::move(e));
    }
  }
  LSTORE_RETURN_IF_ERROR(r.status());
  if (!header_seen || m->entries.size() != expected_entries) {
    return Status::Corruption("manifest truncated");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

Status WriteCatalog(const std::string& dir,
                    const std::vector<CatalogEntry>& entries) {
  return WriteFileAtomic(dir + "/" + kCatalogFile, [&](File& f) {
    FrameWriter w(&f, kCatalogMagic);
    std::string p;
    PutVarint64(&p, entries.size());
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kCatalogHeader, p));
    for (const CatalogEntry& e : entries) {
      std::string q;
      PutString(&q, e.name);
      PutVarint64(&q, e.columns.size());
      for (const std::string& col : e.columns) PutString(&q, col);
      PutConfig(&q, e.config);
      PutVarint64(&q, e.secondary_columns.size());
      for (ColumnId c : e.secondary_columns) PutVarint64(&q, c);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kCatalogEntry, q));
    }
    return w.Finish();
  });
}

Status ReadCatalog(const std::string& dir, std::vector<CatalogEntry>* entries,
                   bool* exists) {
  std::string path = dir + "/" + kCatalogFile;
  *exists = FileExists(path);
  if (!*exists) return Status::OK();
  FrameReader r;
  LSTORE_RETURN_IF_ERROR(r.Open(path, kCatalogMagic));
  uint64_t expected = 0;
  bool header_seen = false;
  FrameType type;
  std::string_view p;
  while (r.Next(&type, &p)) {
    size_t pos = 0;
    if (type == FrameType::kCatalogHeader) {
      if (!GetU64(p, &pos, &expected)) {
        return Status::Corruption("bad catalog header");
      }
      header_seen = true;
    } else if (type == FrameType::kCatalogEntry) {
      CatalogEntry e;
      uint64_t ncols;
      if (!GetString(p, &pos, &e.name) || !GetU64(p, &pos, &ncols)) {
        return Status::Corruption("bad catalog entry");
      }
      for (uint64_t c = 0; c < ncols; ++c) {
        std::string col;
        if (!GetString(p, &pos, &col)) {
          return Status::Corruption("bad catalog entry");
        }
        e.columns.push_back(std::move(col));
      }
      if (!GetConfig(p, &pos, &e.config)) {
        return Status::Corruption("bad catalog config");
      }
      uint64_t nsec;
      if (!GetU64(p, &pos, &nsec)) return Status::Corruption("bad catalog");
      for (uint64_t i = 0; i < nsec; ++i) {
        uint64_t c;
        if (!GetU64(p, &pos, &c)) return Status::Corruption("bad catalog");
        e.secondary_columns.push_back(static_cast<ColumnId>(c));
      }
      entries->push_back(std::move(e));
    }
  }
  LSTORE_RETURN_IF_ERROR(r.status());
  if (!header_seen || entries->size() != expected) {
    return Status::Corruption("catalog truncated");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

CheckpointManager::CheckpointManager(Database* db, std::string dir,
                                     DurabilityOptions opts)
    : db_(db),
      dir_(std::move(dir)),
      opts_(opts),
      capture_ns_(db_->metrics_.GetHistogram(
          "lstore_checkpoint_capture_ns",
          "Checkpoint capture phase: table files + store fsyncs (ns)")),
      truncate_ns_(db_->metrics_.GetHistogram(
          "lstore_checkpoint_truncate_ns",
          "Checkpoint truncation phase: log seal + rewrite (ns)")) {
  hb_ = db_->health_.Register("checkpointer");
}

CheckpointManager::~CheckpointManager() { Stop(); }

void CheckpointManager::SetRecoveredManifest(const Manifest& m) {
  std::lock_guard<std::mutex> g(mu_);
  next_checkpoint_id_ = m.checkpoint_id + 1;
  previous_files_.clear();
  for (const ManifestEntry& e : m.entries) previous_files_.push_back(e.file);
}

uint64_t CheckpointManager::checkpoints_taken() const {
  std::lock_guard<std::mutex> g(mu_);
  return checkpoints_taken_;
}

Status CheckpointManager::last_background_status() const {
  std::lock_guard<std::mutex> g(mu_);
  return last_background_status_;
}

Status CheckpointManager::RunCheckpoint() {
  // DDL first, then checkpoint_mu_ (same order as ForgetTable callers):
  // tables must not be dropped while we hold raw pointers to them.
  std::lock_guard<std::mutex> ddl(db_->ddl_mu_);
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  HeartbeatWorkScope work(hb_.get());
  uint64_t id;
  {
    std::lock_guard<std::mutex> g(mu_);
    id = next_checkpoint_id_;
  }
  db_->events_.Emit(EventSeverity::kInfo, "checkpointer", "checkpoint_begin",
                    "\"id\":" + std::to_string(id));

  auto tables = db_->TableHandles();
  Manifest m;
  m.checkpoint_id = id;
  std::vector<std::string> new_files;
  Status status = Status::OK();

  // Phase 1 — quiesce through the commit log: every table's watermark
  // and the commit-log position are snapshotted inside the
  // group-commit window, so no commit can be half-way through its
  // durability sequence (some participant logs flushed, commit-log
  // record not yet) while the watermarks are taken. The lock covers
  // only the LSN reads — the fsyncs below run with commits flowing.
  // Watermarks BEFORE capture: anything the capture might miss has a
  // higher LSN and will be replayed at recovery (idempotently).
  uint64_t commit_quiesce_lsn = 0;
  {
    std::unique_lock<std::mutex> quiesce;
    if (db_->group_commit_ != nullptr) {
      quiesce = std::unique_lock<std::mutex>(db_->group_commit_->window_mu());
    }
    for (auto& [name, t] : tables) {
      ManifestEntry e;
      e.table = name;
      if (t->log_ != nullptr) e.log_watermark = t->log_->last_lsn();
      e.file = "ckpt_" + std::to_string(id) + "_" + name + ".ckpt";
      m.entries.push_back(std::move(e));
    }
    if (db_->commit_log_ != nullptr) {
      commit_quiesce_lsn = db_->commit_log_->last_lsn();
    }
  }
  // Make the snapshotted prefixes durable (Flush syncs everything up
  // to and beyond the watermark; extra records are harmless).
  for (auto& [name, t] : tables) {
    (void)name;
    if (t->log_ != nullptr) {
      status = t->log_->Flush(/*sync=*/true);
      if (!status.ok()) break;
    }
  }
  if (status.ok() && db_->commit_log_ != nullptr) {
    status = db_->commit_log_->Flush(/*sync=*/true);
  }
  if (!status.ok()) {
    db_->events_.Emit(EventSeverity::kError, "checkpointer", "checkpoint_end",
                      "\"id\":" + std::to_string(id) + ",\"ok\":false");
    return status;
  }

  // Phase 2 — capture (commits proceed; the capture resolves
  // in-flight outcomes through the live transaction manager). Buffer-
  // managed segments are captured by reference into the table's
  // segment store; the store fsync below makes every referenced byte
  // range durable BEFORE the manifest that names it is published.
  Stage capture(capture_ns_, nullptr);
  for (size_t i = 0; i < tables.size(); ++i) {
    if (hb_ != nullptr) hb_->Beat();  // progress between table captures
    Table* t = tables[i].second;
    ManifestEntry& e = m.entries[i];
    status = CheckpointIO::WriteTable(*t, dir_ + "/" + e.file,
                                      &e.file_checksum);
    if (status.ok()) status = t->SyncSegmentStore();
    if (!status.ok()) {
      std::remove((dir_ + "/" + e.file).c_str());  // drop the partial file
      break;
    }
    e.secondary_columns = t->SecondaryColumns();
    new_files.push_back(e.file);
  }
  capture.End();

  // Archive watermarks, recorded in the manifest BEFORE it publishes:
  //  * capture_time — a SnapshotNow taken after the capture loop, a
  //    strict upper bound on every commit time the checkpoint files
  //    can contain (RestoreToPoint's qualification bound), and
  //  * commit_log_mark — the commit-log low-water mark: a record is
  //    covered once every participant's payloads sit at or below that
  //    table's checkpoint watermark (the capture resolved their
  //    outcomes, so the record is dead weight). Only records that
  //    existed when the watermarks were taken
  //    (lsn <= commit_quiesce_lsn) are candidates — a commit racing
  //    the capture keeps its record until the next checkpoint. Only
  //    the contiguous covered prefix counts, so truncated table-log
  //    prefixes can never orphan a still-needed record.
  if (status.ok()) {
    m.capture_time = db_->txn_manager_.SnapshotNow();
    if (db_->commit_log_ != nullptr) {
      std::unordered_map<std::string, uint64_t> watermarks;
      for (const ManifestEntry& e : m.entries) {
        watermarks[e.table] = e.log_watermark;
      }
      uint64_t low = 0;
      bool stop = false;
      status = db_->commit_log_->Scan(
          [&](const CommitLogRecord& rec, uint64_t lsn) {
            if (stop || lsn > commit_quiesce_lsn) {
              stop = true;
              return;
            }
            for (const CommitLogRecord::Participant& p : rec.participants) {
              auto it = watermarks.find(p.table);
              // A participant missing from the manifest was dropped;
              // nothing remains to recover for it.
              if (it != watermarks.end() && p.last_lsn > it->second) {
                stop = true;
                return;
              }
            }
            low = lsn;
          });
      if (status.ok()) m.commit_log_mark = low;
    }
  }

  if (status.ok()) status = WriteManifest(dir_, m);
  if (!status.ok()) {
    // Failed checkpoint: the old manifest still rules; drop orphans.
    for (const std::string& f : new_files) {
      std::remove((dir_ + "/" + f).c_str());
    }
    db_->events_.Emit(EventSeverity::kError, "checkpointer", "checkpoint_end",
                      "\"id\":" + std::to_string(id) + ",\"ok\":false");
    return status;
  }

  // With archiving on, the just-published manifest becomes a durable
  // restore-epoch boundary (MANIFEST.<id>). A crash before the copy
  // merely skips this epoch: restores in its window fall back to the
  // previous archived manifest plus a longer stitched replay.
  ArchiveManager* archive =
      db_->archive_ != nullptr && db_->archive_->enabled()
          ? db_->archive_.get()
          : nullptr;
  if (archive != nullptr) {
    Status as = archive->ArchiveManifestCopy(id);
    if (!as.ok() && status.ok()) status = as;
  }

  // The manifest is durable: the log prefix below each watermark is
  // dead weight now (Section 5.1.3's log truncation) — deleted, or,
  // with archiving on, sealed into LSN-range-named segments (durable
  // before each truncated log publishes, so no crash point loses log
  // bytes).
  Stage truncation(truncate_ns_, nullptr);
  if (opts_.truncate_log_after_checkpoint) {
    for (size_t i = 0; i < tables.size(); ++i) {
      Table* t = tables[i].second;
      if (t->log_ != nullptr) {
        FramedLog::SealSink sink;
        if (archive != nullptr) {
          const std::string& table_name = tables[i].first;
          sink = [archive, &table_name](uint64_t lo, uint64_t hi,
                                        std::string_view bytes) {
            return archive->SealRedoPrefix(table_name, lo, hi, bytes);
          };
        }
        Status ts = t->log_->TruncateTo(m.entries[i].log_watermark, sink);
        if (!ts.ok() && status.ok()) status = ts;
      }
    }
    if (db_->commit_log_ != nullptr && m.commit_log_mark > 0) {
      FramedLog::SealSink sink;
      if (archive != nullptr) {
        sink = [archive](uint64_t lo, uint64_t hi, std::string_view bytes) {
          return archive->SealCommitPrefix(lo, hi, bytes);
        };
      }
      Status ss = db_->commit_log_->TruncateTo(m.commit_log_mark, sink);
      if (!ss.ok() && status.ok()) status = ss;
    }
  }
  truncation.End();
  if (opts_.truncate_log_after_checkpoint) {
    db_->events_.Emit(EventSeverity::kInfo, "checkpointer", "log_truncate",
                      "\"id\":" + std::to_string(id) + ",\"commit_log_mark\":" +
                          std::to_string(m.commit_log_mark));
  }
  db_->metrics_
      .GetCounter("lstore_checkpoints_total", "Checkpoints published")
      ->Add(1);

  std::lock_guard<std::mutex> g(mu_);
  for (const std::string& f : previous_files_) {
    bool still_live = false;
    for (const std::string& nf : new_files) {
      if (nf == f) still_live = true;
    }
    if (still_live) continue;
    if (archive != nullptr) {
      // Superseded checkpoints move into the archive: the archived
      // manifests still reference them by name.
      Status as = archive->ArchiveCheckpointFile(f);
      if (!as.ok() && status.ok()) status = as;
    } else {
      std::remove((dir_ + "/" + f).c_str());
    }
  }
  previous_files_ = std::move(new_files);
  next_checkpoint_id_ = id + 1;
  ++checkpoints_taken_;
  if (archive != nullptr) {
    Status rs = archive->EnforceRetention();
    if (!rs.ok() && status.ok()) status = rs;
  }
  db_->events_.Emit(
      status.ok() ? EventSeverity::kInfo : EventSeverity::kWarn,
      "checkpointer", "checkpoint_end",
      "\"id\":" + std::to_string(id) +
          (status.ok() ? ",\"ok\":true" : ",\"ok\":false"));
  return status;
}

Status CheckpointManager::ForgetTable(const std::string& table) {
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  Manifest m;
  bool exists = false;
  LSTORE_RETURN_IF_ERROR(ReadManifest(dir_, &m, &exists));
  if (!exists) return Status::OK();
  Manifest keep;
  keep.checkpoint_id = m.checkpoint_id;
  std::vector<std::string> dead;
  for (ManifestEntry& e : m.entries) {
    if (e.table == table) {
      dead.push_back(e.file);
    } else {
      keep.entries.push_back(std::move(e));
    }
  }
  if (dead.empty()) return Status::OK();
  LSTORE_RETURN_IF_ERROR(WriteManifest(dir_, keep));
  for (const std::string& f : dead) {
    std::remove((dir_ + "/" + f).c_str());
  }
  std::lock_guard<std::mutex> g(mu_);
  for (const std::string& f : dead) {
    previous_files_.erase(
        std::remove(previous_files_.begin(), previous_files_.end(), f),
        previous_files_.end());
  }
  return Status::OK();
}

uint64_t CheckpointManager::TotalLogBytes() const {
  std::lock_guard<std::mutex> ddl(db_->ddl_mu_);
  uint64_t total = 0;
  for (auto& [name, t] : db_->TableHandles()) {
    (void)name;
    uint64_t bytes = 0;
    if (!t->config().log_path.empty() &&
        FileExists(t->config().log_path, &bytes)) {
      total += bytes;
    }
  }
  return total;
}

void CheckpointManager::Start() {
  if (opts_.checkpoint_interval_ms == 0 && opts_.checkpoint_log_bytes == 0) {
    return;
  }
  std::lock_guard<std::mutex> g(mu_);
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this] { Loop(); });
}

void CheckpointManager::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void CheckpointManager::Loop() {
  using Clock = std::chrono::steady_clock;
  auto last_checkpoint = Clock::now();
  std::unique_lock<std::mutex> lk(mu_);
  while (running_) {
    // Poll at a fraction of the interval so the size trigger stays
    // responsive even with a long timed interval.
    uint64_t poll_ms = opts_.checkpoint_interval_ms != 0
                           ? std::max<uint64_t>(opts_.checkpoint_interval_ms / 4, 1)
                           : 50;
    cv_.wait_for(lk, std::chrono::milliseconds(poll_ms),
                 [this] { return !running_; });
    if (!running_) break;
    lk.unlock();
    if (hb_ != nullptr) hb_->Beat();  // liveness per poll, even when idle

    bool due = false;
    if (opts_.checkpoint_interval_ms != 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - last_checkpoint)
                         .count();
      due = elapsed >= static_cast<int64_t>(opts_.checkpoint_interval_ms);
    }
    if (!due && opts_.checkpoint_log_bytes != 0) {
      due = TotalLogBytes() > opts_.checkpoint_log_bytes;
    }
    Status s = Status::OK();
    if (due) {
      s = RunCheckpoint();
      last_checkpoint = Clock::now();
    }

    lk.lock();
    if (due) last_background_status_ = s;
  }
}

}  // namespace lstore
