#include "core/database.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "archive/archive_manager.h"
#include "checkpoint/checkpoint_manager.h"
#include "checkpoint/serde.h"
#include "common/file.h"
#include "core/commit_pipeline.h"
#include "log/redo_log.h"
#include "obs/flight_recorder.h"
#include "obs/slow_op_log.h"

namespace lstore {

Database::Database() : executor_([this] { return health_.NowNs(); }) {
  // The watchdog exists on every database (in-memory ones get
  // on-demand sweeps via Health(); only durable opens make it a
  // timer). DumpTrace reads the process-wide flight recorder, so the
  // capture is safe for the watchdog's whole lifetime.
  watchdog_ = std::make_unique<Watchdog>(&health_, &events_, &metrics_,
                                         [this] { return DumpTrace(); });
  // Snapshot-time collector: mirror levels kept by their subsystems
  // into gauges — zero cost on the subsystems' hot paths. `this`
  // outlives the registry (both are members), so the capture is safe.
  metrics_.AddCollector([this](MetricsRegistry& r) {
    BufferPoolStats bs = buffer_pool_ != nullptr ? buffer_pool_->stats()
                                                 : BufferPoolStats{};
    r.GetGauge("lstore_buffer_hits", "Buffer-pool resident pin hits")
        ->Set(static_cast<int64_t>(bs.hits));
    r.GetGauge("lstore_buffer_misses", "Buffer-pool demand loads")
        ->Set(static_cast<int64_t>(bs.misses));
    r.GetGauge("lstore_buffer_evictions", "Buffer-pool clock evictions")
        ->Set(static_cast<int64_t>(bs.evictions));
    r.GetGauge("lstore_buffer_cold_point_reads",
               "Point reads served from cold segments without loading them")
        ->Set(static_cast<int64_t>(bs.cold_point_reads));
    r.GetGauge("lstore_buffer_bytes_resident", "Resident payload bytes")
        ->Set(static_cast<int64_t>(bs.bytes_resident));
    r.GetGauge("lstore_buffer_budget_bytes", "Pool byte budget (0 = none)")
        ->Set(static_cast<int64_t>(bs.budget_bytes));
    r.GetGauge("lstore_buffer_pages", "Registered pages (resident or cold)")
        ->Set(static_cast<int64_t>(bs.pages));
    {
      SpinGuard g(latch_);
      std::vector<const Table*> tables;
      for (const auto& e : tables_) tables.push_back(e.table.get());
      Table::CollectSizeGauges(r, tables);
    }
    if (kTraceEnabled) {
      // Mirror the flight recorder's monotonic overwrite count into a
      // counter: exchange keeps the delta exact even when several
      // databases in one process all run this collector.
      uint64_t dropped = FlightRecorder::Instance().dropped();
      uint64_t seen = trace_dropped_seen_.exchange(dropped);
      if (dropped > seen) {
        r.GetCounter("lstore_trace_ring_dropped_total",
                     "Flight-recorder spans overwritten before snapshot")
            ->Add(dropped - seen);
      }
    }
  });
}

Database::~Database() {
  // Background work stops BEFORE the subsystems it runs over: no
  // watchdog sweep may observe a half-destroyed actor, and no queued
  // checkpoint starts on tables about to go.
  executor_.Stop();
  background_.Stop();
  if (durable()) {
    events_.Emit(EventSeverity::kInfo, "db", "close");
    // One final line, so short-lived runs still leave a record.
    if (durability_.metrics_report_interval_ms > 0) ReportMetrics();
  }
}

void Database::ReportMetrics() {
  HeartbeatWorkScope work(reporter_hb_.get());
  std::string line = Metrics().RenderJson();
  line.push_back('\n');
  AppendLineRotated(dir_ + "/metrics.log", /*max_bytes=*/0, line);
}

HealthReport Database::Health() {
  HealthReport report = watchdog_->SweepOnce();
  report.recent_events = events_.Recent(32);
  return report;
}

// ---------------------------------------------------------------------------
// Table registry
// ---------------------------------------------------------------------------

Status Database::CreateTableInternal(const std::string& name, Schema schema,
                                     TableConfig config, uint64_t id,
                                     const std::string& store_dir,
                                     Table** out) {
  if (schema.num_columns() == 0 || schema.num_columns() > kMaxColumns) {
    return Status::InvalidArgument("a table has 1 to " +
                                   std::to_string(kMaxColumns) + " columns");
  }
  // Creations are serialized (ddl_mu_, or recovery before it returns),
  // so a name free here is still free at the publish below.
  if (GetTable(name) != nullptr) return Status::AlreadyExists("table exists");
  // Buffer-managed base storage: with a pool, every table shares it
  // and gets its own swap store under the directory. WITHOUT a pool,
  // an existing .segs file is still opened — a database checkpointed
  // with paging on must reopen with paging off: its lazily restored
  // segments hydrate on first touch and then stay resident. Opening
  // an existing file keeps previously recorded offsets valid, so a
  // manifest that references them recovers lazily; a restore maps the
  // store read-only. The filesystem work and construction run BEFORE
  // the registry spin latch (GetTable callers must not spin through
  // syscalls).
  const std::string segs_path = store_dir + "/" + name + ".segs";
  std::unique_ptr<SegmentStore> store;
  if (!store_dir.empty() &&
      (buffer_pool_ != nullptr || FileExists(segs_path))) {
    store = std::make_unique<SegmentStore>();
    LSTORE_RETURN_IF_ERROR(store->Open(segs_path, /*read_only=*/!durable()));
    config.buffer_pool = buffer_pool_.get();
    config.segment_store = store.get();
  }
  // Every table of a database records into the shared registry, and
  // its merge tasks heartbeat into the shared health registry.
  config.metrics = &metrics_;
  config.health = &health_;
  auto table = std::make_unique<Table>(name, std::move(schema),
                                       std::move(config), &txn_manager_);
  // Its records name it by its catalog id in the one log; until
  // recovery opens the log, its commits fail at the sync.
  table->log_ = log_.get();
  table->log_id_ = id;
  SpinGuard g(latch_);
  if (store != nullptr) segment_stores_[name] = std::move(store);
  tables_.push_back(Entry{name, std::move(table)});
  // Sessions begun on this database are valid on the member table.
  tables_.back().table->txn_scope_ = this;
  if (out != nullptr) *out = tables_.back().table.get();
  return Status::OK();
}

Status Database::Recover(const Catalog& catalog, const RecoverySource& src) {
  next_table_id_ = catalog.next_id;
  // A table's manifest entry is the one under its id: a table created
  // after the checkpoint has none (the log alone carries it), and a
  // dropped table's entry matches no catalog id.
  auto entry_of = [&src](uint64_t id) -> const ManifestEntry* {
    for (const ManifestEntry& me : src.manifest.entries) {
      if (me.table_id == id) return &me;
    }
    return nullptr;
  };
  // Step 1: every cataloged table, from its checkpoint if it has one.
  Table::LogTables tables;
  for (const CatalogEntry& ce : catalog.entries) {
    Table* t = nullptr;
    LSTORE_RETURN_IF_ERROR(CreateTableInternal(
        ce.name, Schema(ce.columns), ce.config, ce.id, src.dir, &t));
    if (const ManifestEntry* me = entry_of(ce.id)) {
      const std::string ckpt =
          ArchiveManager::ResolveCheckpointFile(src.dir, me->file);
      if (ckpt.empty()) {
        return Status::Corruption("checkpoint file missing: " + me->file);
      }
      LSTORE_RETURN_IF_ERROR(
          CheckpointIO::LoadTable(t, ckpt, me->file_checksum,
                                  durability_.verify_segment_store_on_open));
    }
    tables[ce.id] = t;
  }
  // Step 2: the one redo stream, read once.
  CommitOutcomes commits;
  const uint64_t watermark = src.manifest.log_watermark;
  if (src.stream != nullptr) {
    LSTORE_RETURN_IF_ERROR(Table::ReplayLog(
        tables, watermark, src.horizon,
        [&src](const RedoLog::RecordFn& fn) {
          return RedoLog::Replay(*src.stream, fn, nullptr);
        },
        &commits));
  } else {
    Status s = Table::ReplayLog(
        tables, watermark, src.horizon,
        [this, watermark](const RedoLog::RecordFn& fn) {
          return log_->Open(dir_, watermark, fn);
        },
        &commits);
    // Append nothing after a log that could not be replayed.
    if (!s.ok()) log_->Close();
    LSTORE_RETURN_IF_ERROR(s);
  }
  // Steps 3 and 4, table by table against the one outcome map.
  for (const CatalogEntry& ce : catalog.entries) {
    Table* t = tables[ce.id];
    LSTORE_RETURN_IF_ERROR(t->ResolveAndRebuild(commits));
    // Secondary indexes: union of the catalog (kept current by
    // Database::CreateSecondaryIndex) and the manifest (covers
    // indexes created directly on the Table before a checkpoint).
    std::vector<ColumnId> secs = ce.secondary_columns;
    if (const ManifestEntry* me = entry_of(ce.id)) {
      secs.insert(secs.end(), me->secondary_columns.begin(),
                  me->secondary_columns.end());
    }
    std::sort(secs.begin(), secs.end());
    secs.erase(std::unique(secs.begin(), secs.end()), secs.end());
    for (ColumnId col : secs) t->CreateSecondaryIndex(col);
  }
  // Beyond every commit even when no table replayed it (e.g. all
  // tables dropped): a fresh transaction id must never collide with a
  // retained log record. A restore's clock lands just past the newest
  // commit at or before its point, so Now() IS the point.
  ResumeClock(commits, 0, &txn_manager_);
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, Schema schema,
                             TableConfig config) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  if (durable()) {
    if (GetTable(name) != nullptr) return Status::AlreadyExists("table exists");
    // A stale swap store of a previously dropped table must not be
    // appended to: its old offsets are garbage for the new table.
    std::remove((dir_ + "/" + name + ".segs").c_str());
  }
  LSTORE_RETURN_IF_ERROR(CreateTableInternal(name, std::move(schema),
                                             std::move(config),
                                             next_table_id_, dir_, nullptr));
  ++next_table_id_;
  if (durable()) return PersistCatalog();
  return Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  SpinGuard g(latch_);
  for (auto& e : tables_) {
    if (e.name == name) return e.table.get();
  }
  return nullptr;
}

Status Database::DropTable(const std::string& name) {
  // Serialize against checkpoints: RunCheckpoint walks raw Table
  // pointers and must never see one destroyed mid-capture.
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  Table* table = GetTable(name);
  if (table == nullptr) return Status::NotFound("no such table");
  // Durable state first, memory last, so a failed persist (e.g.
  // ENOSPC) leaves the drop cleanly retryable. The catalog rules
  // existence: once it lacks the id, recovery skips the table's log
  // records and checkpoint file, and the next checkpoint drops both.
  if (durable()) LSTORE_RETURN_IF_ERROR(PersistCatalogExcluding(table));
  std::unique_ptr<Table> dropped;
  {
    SpinGuard g(latch_);
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it != tables_.end()) {
      dropped = std::move(it->table);
      tables_.erase(it);
    }
  }
  // Destroyed outside the latch. ~Table waits only for a merge task
  // already running, and a merge takes neither lock held here.
  dropped.reset();
  // The table (and with it every cold page referencing the store) is
  // gone; drop the swap store last.
  segment_stores_.erase(name);
  if (durable()) std::remove((dir_ + "/" + name + ".segs").c_str());
  return Status::OK();
}

Status Database::CreateSecondaryIndex(const std::string& table,
                                      ColumnId col) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table");
  if (col >= t->schema().num_columns()) {
    return Status::InvalidArgument("bad column");
  }
  for (ColumnId existing : t->SecondaryColumns()) {
    if (existing == col) return Status::AlreadyExists("index exists");
  }
  t->CreateSecondaryIndex(col);
  if (durable()) return PersistCatalog();
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  SpinGuard g(latch_);
  std::vector<std::string> names;
  for (const auto& e : tables_) names.push_back(e.name);
  return names;
}

std::vector<std::pair<std::string, Table*>> Database::TableHandles() const {
  SpinGuard g(latch_);
  std::vector<std::pair<std::string, Table*>> out;
  out.reserve(tables_.size());
  for (const auto& e : tables_) out.emplace_back(e.name, e.table.get());
  return out;
}

Status Database::PersistCatalogExcluding(const Table* skip) {
  Catalog catalog;
  catalog.next_id = next_table_id_;
  {
    SpinGuard g(latch_);
    for (const auto& e : tables_) {
      if (e.table.get() == skip) continue;
      CatalogEntry ce;
      ce.id = e.table->log_id_;
      ce.name = e.name;
      ce.columns = e.table->schema().names();
      ce.config = e.table->config();
      ce.secondary_columns = e.table->SecondaryColumns();
      catalog.entries.push_back(std::move(ce));
    }
  }
  return WriteCatalog(dir_, catalog);
}

// ---------------------------------------------------------------------------
// Durability: open + checkpoint
// ---------------------------------------------------------------------------

Status Database::Open(const std::string& dir, const DurabilityOptions& opts,
                      std::unique_ptr<Database>* out) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create database directory: " + dir);
  }
  auto db = std::unique_ptr<Database>(new Database());
  db->dir_ = dir;
  db->durability_ = opts;

  // Health + events first: every subsystem constructed below may
  // register a heartbeat or emit a lifecycle event.
  db->health_.set_default_deadlines(opts.health_slow_ms,
                                    opts.health_stall_ms);
  db->events_.Configure(
      dir + "/events.log", opts.event_log_max_bytes,
      db->metrics_.GetCounter("lstore_events_total",
                              "Structured engine events emitted"),
      opts.event_ring_capacity);
  db->watchdog_->set_dump_dir(dir);

  // Buffer-managed base storage: a byte budget (option, or the
  // LSTORE_BUFFER_POOL_BYTES test knob) turns on demand paging of base
  // segments; 0 keeps them fully resident exactly as before. The pool
  // must exist before any table recovers so checkpoints can restore
  // segment references lazily.
  uint64_t pool_budget = opts.buffer_pool_bytes != 0
                             ? opts.buffer_pool_bytes
                             : BufferPool::EnvBudgetBytes();
  if (pool_budget > 0) {
    db->buffer_pool_ = std::make_unique<BufferPool>(pool_budget);
    db->buffer_pool_->set_event_log(&db->events_);
  }

  // The catalog first: a directory in another format is refused here,
  // before the archive directory is made or the log opened (and its
  // tail possibly cut).
  Catalog catalog;
  bool catalog_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadCatalog(dir, &catalog, &catalog_exists));

  // Log archiving: the manager exists before the first checkpoint can
  // retire a log segment.
  if (opts.archive_enabled) {
    db->archive_ = std::make_unique<ArchiveManager>(dir, opts);
    db->archive_->set_metrics(&db->metrics_);
    db->archive_->set_event_log(&db->events_);
    LSTORE_RETURN_IF_ERROR(db->archive_->EnsureDir());
  }

  // Restart recovers from the live manifest and the one redo log.
  RecoverySource src;
  src.dir = dir;
  bool manifest_exists = false;
  LSTORE_RETURN_IF_ERROR(ReadManifest(dir, &src.manifest, &manifest_exists));

  // Every table's commits share the log's fsyncs (group commit) and
  // its one fsync policy, single- and cross-table sessions alike.
  db->log_ = std::make_unique<RedoLog>();
  db->log_->set_metrics(FramedLogMetrics::In(&db->metrics_, "lstore_redo",
                                             "Redo-log", "log_flush"));
  db->group_commit_hb_ = db->health_.Register("group_commit");
  db->log_->set_group_commit(opts.sync_commit, db->group_commit_hb_.get());
  LSTORE_RETURN_IF_ERROR(db->Recover(catalog, src));

  db->checkpoint_manager_ =
      std::make_unique<CheckpointManager>(db.get(), dir, opts);
  if (manifest_exists) {
    db->checkpoint_manager_->SetRecoveredManifest(src.manifest);
  }
  // The periodic actors are timers on the executor; its thread starts
  // with the first of them.
  Database* raw = db.get();
  db->checkpoint_manager_->Schedule(&db->executor_, &db->background_);
  if (opts.metrics_report_interval_ms > 0) {
    db->reporter_hb_ = db->health_.Register("reporter");
    // Posted, not run on the timer thread: a line stuck on a stalled
    // disk leaves the watchdog sweeping, and its busy heartbeat seen.
    db->executor_.Every(opts.metrics_report_interval_ms, [raw] {
      if (raw->report_queued_.exchange(true)) return;
      raw->background_.Post([raw] {
        raw->ReportMetrics();
        raw->report_queued_.store(false);
      });
    });
  }
  if (kTraceEnabled && opts.slow_op_threshold_us > 0) {
    // Same directory (and rotation idiom) as metrics.log; the counter
    // makes the dumps themselves observable.
    db->slow_op_log_ = std::make_unique<SlowOpLog>(
        dir + "/slowops.log", opts.slow_op_threshold_us,
        db->metrics_.GetCounter(
            "lstore_server_slow_ops_total",
            "Traced requests that exceeded slow_op_threshold_us"),
        opts.slow_op_log_max_bytes);
  }
  db->events_.Emit(EventSeverity::kInfo, "db", "open",
                   "\"tables\":" + std::to_string(catalog.entries.size()));
  if (opts.watchdog_interval_ms > 0) {
    db->executor_.Every(opts.watchdog_interval_ms,
                        [raw] { raw->watchdog_->SweepOnce(); });
  }
  *out = std::move(db);
  return Status::OK();
}

std::string Database::DumpTrace() const {
  return FlightRecorder::Instance().RenderChromeTrace();
}

Status Database::Checkpoint() {
  if (!durable()) {
    return Status::NotSupported("in-memory database has no checkpoint");
  }
  return checkpoint_manager_->RunCheckpoint();
}

// ---------------------------------------------------------------------------
// Cross-table transactions
// ---------------------------------------------------------------------------

Txn Database::Begin(IsolationLevel iso) {
  return Txn(this, txn_manager_.Begin(iso));
}

Status Database::CommitTxn(Transaction* txn) {
  // The pipeline filters the actual participants from the read and
  // write sets; entries of a table dropped since are ignored.
  std::vector<EngineBase*> tables = LiveTables();
  return CommitAcross(txn_manager_, txn, tables.data(), tables.size());
}

void Database::AbortTxn(Transaction* txn) {
  std::vector<EngineBase*> tables = LiveTables();
  AbortAcross(txn_manager_, txn, tables.data(), tables.size());
}

std::vector<EngineBase*> Database::LiveTables() const {
  std::vector<EngineBase*> tables;
  SpinGuard g(latch_);
  for (const auto& e : tables_) tables.push_back(e.table.get());
  return tables;
}

}  // namespace lstore
