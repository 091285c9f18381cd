#include "checkpoint/checkpoint_manager.h"

#include <cstdio>

#include "archive/archive_manager.h"
#include "checkpoint/serde.h"
#include "common/executor.h"
#include "common/file.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/table.h"
#include "log/redo_log.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

constexpr char kManifestFile[] = "MANIFEST";
constexpr char kCatalogFile[] = "CATALOG";

/// Pack the restart-relevant TableConfig fields (the wiring fields,
/// pool, store and registries, come from the Database at Open).
void PutConfig(std::string* p, const TableConfig& c) {
  PutVarint64(p, c.range_size);
  PutVarint64(p, c.base_page_slots);
  PutVarint64(p, c.tail_page_slots);
  PutVarint64(p, c.merge_threshold);
  PutVarint64(p, c.insert_range_size);
  uint64_t flags =
      (c.cumulative_updates ? 1u : 0) | (c.enable_merge_thread ? 2u : 0);
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
  c->insert_range_size = static_cast<uint32_t>(v);
  if (!GetU64(p, pos, &flags)) return false;
  c->cumulative_updates = (flags & 1u) != 0;
  c->enable_merge_thread = (flags & 2u) != 0;
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
    PutVarint64(&p, m.log_watermark);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kManifestHeader, p));
    for (const ManifestEntry& e : m.entries) {
      std::string q;
      PutVarint64(&q, e.table_id);
      PutString(&q, e.file);
      PutVarint64(&q, e.file_checksum);
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
          !GetU64(p, &pos, &expected_entries) ||
          !GetU64(p, &pos, &m->capture_time) ||
          !GetU64(p, &pos, &m->log_watermark)) {
        return Status::Corruption("bad manifest header");
      }
      header_seen = true;
    } else if (type == FrameType::kManifestEntry) {
      ManifestEntry e;
      uint64_t nsec;
      if (!GetU64(p, &pos, &e.table_id) || !GetString(p, &pos, &e.file) ||
          !GetU64(p, &pos, &e.file_checksum) || !GetU64(p, &pos, &nsec)) {
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

Status WriteCatalog(const std::string& dir, const Catalog& catalog) {
  return WriteFileAtomic(dir + "/" + kCatalogFile, [&](File& f) {
    FrameWriter w(&f, kCatalogMagic);
    std::string p;
    PutVarint64(&p, catalog.entries.size());
    PutVarint64(&p, catalog.next_id);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kCatalogHeader, p));
    for (const CatalogEntry& e : catalog.entries) {
      std::string q;
      PutVarint64(&q, e.id);
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

Status ReadCatalog(const std::string& dir, Catalog* catalog, bool* exists) {
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
      if (!GetU64(p, &pos, &expected) ||
          !GetU64(p, &pos, &catalog->next_id)) {
        return Status::Corruption("bad catalog header");
      }
      header_seen = true;
    } else if (type == FrameType::kCatalogEntry) {
      CatalogEntry e;
      uint64_t ncols;
      if (!GetU64(p, &pos, &e.id) || !GetString(p, &pos, &e.name) ||
          !GetU64(p, &pos, &ncols)) {
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
      catalog->entries.push_back(std::move(e));
    }
  }
  LSTORE_RETURN_IF_ERROR(r.status());
  if (!header_seen || catalog->entries.size() != expected) {
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
          "Checkpoint truncation phase: closed log segments deleted or "
          "archived (ns)")) {
  hb_ = db_->health_.Register("checkpointer");
}

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
  // DDL first, then checkpoint_mu_: tables must not be dropped while
  // we hold raw pointers to them.
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

  // Phase 1 — the one watermark, read BEFORE capture: anything the
  // capture might miss has a higher LSN and is replayed at recovery
  // (idempotently). A write applies its tail record before appending
  // the log record, so every record at or below the watermark is in
  // the memory the capture reads. The roll closes the log's open
  // segment at the watermark, durable, so the segments retired below
  // hold exactly the LSNs up to it.
  RedoLog* log = db_->log_.get();
  status = log->Roll(&m.log_watermark);
  for (auto& [name, t] : tables) {
    ManifestEntry e;
    e.table_id = t->log_id_;
    e.file = "ckpt_" + std::to_string(id) + "_" + name + ".ckpt";
    m.entries.push_back(std::move(e));
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

  // The archive watermark, recorded in the manifest BEFORE it
  // publishes: a SnapshotNow taken after the capture loop, a strict
  // upper bound on every commit time the checkpoint files can contain
  // (RestoreToPoint's qualification bound).
  if (status.ok()) m.capture_time = db_->txn_manager_.SnapshotNow();

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

  // The manifest is durable: the closed segments at or below the
  // watermark are dead weight now (Section 5.1.3's log truncation),
  // those an earlier checkpoint's crash left behind among them. Each
  // leaves whole — deleted, or, with archiving on, renamed into the
  // archive. A crash midway leaves some in place; a restart skips them
  // and the next checkpoint retires them.
  Stage truncation(truncate_ns_, nullptr);
  if (opts_.truncate_log_after_checkpoint) {
    std::vector<FramedLog::Segment> retired;
    Status ts = FramedLog::RetiredSegments(dir_, m.log_watermark, &retired);
    for (const FramedLog::Segment& seg : retired) {
      if (!ts.ok()) break;
      if (archive != nullptr) {
        ts = archive->ArchiveSegment(seg);
      } else if (std::remove(seg.path.c_str()) != 0) {
        ts = Status::IOError("cannot delete log segment: " + seg.path);
      }
    }
    if (!ts.ok() && status.ok()) status = ts;
    db_->events_.Emit(EventSeverity::kInfo, "checkpointer", "log_truncate",
                      "\"id\":" + std::to_string(id) + ",\"watermark\":" +
                          std::to_string(m.log_watermark));
  }
  truncation.End();
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

void CheckpointManager::Schedule(Executor* executor, SerialQueue* queue) {
  constexpr uint64_t kLogPollMs = 50;  // the size trigger's poll
  // At most one background checkpoint is posted or running: a trigger
  // firing meanwhile posts nothing, and the interval counts from the
  // end of the last one.
  auto post = [this, executor, queue] {
    if (queued_.exchange(true)) return;
    queue->Post([this, executor] {
      Status s = RunCheckpoint();
      std::lock_guard<std::mutex> g(mu_);
      last_background_status_ = s;
      executor->Restart(interval_timer_);
      queued_.store(false);
    });
  };
  if (opts_.checkpoint_interval_ms != 0) {
    size_t id = executor->Every(opts_.checkpoint_interval_ms, post);
    std::lock_guard<std::mutex> g(mu_);
    interval_timer_ = id;
  }
  if (opts_.checkpoint_log_bytes != 0) {
    // The log's appended length, not its file size: the open file runs
    // ahead by its zero tail.
    executor->Every(kLogPollMs, [this, post] {
      if (db_->log_->bytes() > opts_.checkpoint_log_bytes) post();
    });
  }
}

}  // namespace lstore
