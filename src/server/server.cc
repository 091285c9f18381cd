#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"
#include "core/query.h"
#include "obs/slow_op_log.h"
#include "obs/span.h"

namespace lstore {

Server::Server(Database* db, ServerConfig config)
    : db_(db), cfg_(std::move(config)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }

  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  if (cfg_.workers == 0) {
    cfg_.workers = std::clamp<uint32_t>(hw / 2, 2, 8);
  }
  if (cfg_.max_queue_depth == 0) cfg_.max_queue_depth = 1;
  if (cfg_.max_inflight_per_session == 0) cfg_.max_inflight_per_session = 1;
  if (cfg_.scan_threads != UINT32_MAX) {
    // Keep server workers + Query scan partitions inside one core
    // budget: by default the scan pool gets whatever the workers
    // don't. First-configuration-wins (see ThreadPool::ConfigureShared),
    // so an explicit DurabilityOptions::scan_threads set at Open
    // still takes precedence.
    uint32_t scan = cfg_.scan_threads != 0
                        ? cfg_.scan_threads
                        : (hw > cfg_.workers ? hw - cfg_.workers : 1);
    ThreadPool::ConfigureShared(scan);
  }

  MetricsRegistry& reg = db_->metrics();
  m_accepted_ = reg.GetCounter("lstore_server_requests_total",
                               "Requests admitted to the job queue");
  m_rejected_ = reg.GetCounter(
      "lstore_server_rejected_total",
      "Requests answered Busy at admission (queue or session cap)");
  m_errors_ = reg.GetCounter("lstore_server_errors_total",
                             "Malformed frames and request payloads");
  m_connections_ = reg.GetCounter("lstore_server_connections_total",
                                  "Client connections accepted");
  m_bytes_in_ = reg.GetCounter("lstore_server_bytes_in_total",
                               "Request bytes received (incl. framing)");
  m_bytes_out_ = reg.GetCounter("lstore_server_bytes_out_total",
                                "Response bytes sent (incl. framing)");
  g_sessions_ = reg.GetGauge("lstore_server_sessions", "Connected sessions");
  g_queue_depth_ =
      reg.GetGauge("lstore_server_queue_depth", "Requests queued, all sessions");
  h_queue_wait_ns_ = reg.GetHistogram(
      "lstore_server_queue_wait_ns",
      "Admission-to-execution wait of accepted requests");
  h_request_ns_ = reg.GetHistogram("lstore_server_request_ns",
                                   "Request execution latency (engine time)");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + cfg_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status s = Status::IOError(std::string("bind/listen: ") +
                               std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(cfg_.workers);
  for (uint32_t i = 0; i < cfg_.workers; ++i) {
    // Registered before the thread starts, so a HEALTH request served
    // right after Start() already lists every worker.
    std::shared_ptr<Heartbeat> hb =
        db_->health().Register("server.worker." + std::to_string(i));
    workers_.emplace_back([this, hb] { WorkerLoop(hb.get()); });
  }
  db_->event_log().Emit(EventSeverity::kInfo, "server", "start",
                        "\"port\":" + std::to_string(port_) + ",\"workers\":" +
                            std::to_string(cfg_.workers));
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting: shutdown() unblocks a blocked accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Unblock every connection's reader (EOF on next recv). The fds
  //    are only *closed* at finalization, after readers are gone.
  {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [id, s] : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
    }
  }

  // 3. Drain the workers: each finishes its in-flight request, then
  //    exits (queued-but-unstarted requests are dropped — their
  //    clients observe the connection closing).
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // 4. Wait out the (detached) readers, then finalize every session
  //    left: open transactions abort, sockets close.
  std::unique_lock<std::mutex> l(mu_);
  reader_cv_.wait(l, [this] { return reader_threads_ == 0; });
  runq_.clear();
  while (!sessions_.empty()) {
    std::shared_ptr<Session> s = sessions_.begin()->second;
    queued_ -= static_cast<uint32_t>(s->pending.size());
    s->pending.clear();
    FinalizeSessionLocked(s);
  }
  if (g_queue_depth_ != nullptr) g_queue_depth_->Set(0);
  l.unlock();
  db_->event_log().Emit(EventSeverity::kInfo, "server", "stop",
                        "\"port\":" + std::to_string(port_));
}

ServerStats Server::stats() const {
  ServerStats st;
  if (m_accepted_ != nullptr) st.accepted = m_accepted_->value();
  if (m_rejected_ != nullptr) st.rejected_busy = m_rejected_->value();
  if (m_errors_ != nullptr) st.errors = m_errors_->value();
  std::lock_guard<std::mutex> g(mu_);
  st.sessions_active = sessions_.size();
  st.queue_depth = queued_;
  return st;
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown()/close() of the listen socket lands here.
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == ECONNABORTED) continue;
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      std::lock_guard<std::mutex> g(mu_);
      session->id = next_session_id_++;
      sessions_.emplace(session->id, session);
      ++reader_threads_;
    }
    m_connections_->Increment();
    g_sessions_->Add(1);
    std::thread([this, session]() mutable {
      ReaderLoop(std::move(session));
    }).detach();
  }
}

void Server::ReaderLoop(std::shared_ptr<Session> session) {
  // Busy-scoped heartbeat: a reader blocked in ReadFrame is waiting on
  // the client (healthy); only frame processing counts as work. Local
  // shared_ptr → the actor unregisters when the connection ends.
  std::shared_ptr<Heartbeat> hb =
      db_->health().Register("server.reader." + std::to_string(session->id));
  for (;;) {
    std::string payload;
    Status s = wire::ReadFrame(session->fd, cfg_.max_frame_bytes, &payload);
    HeartbeatWorkScope work(hb.get());
    if (!s.ok()) {
      if (s.IsCorruption() || s.IsInvalidArgument()) {
        // A checksum mismatch or a hostile length header leaves the
        // stream position unknowable: report once, then hang up.
        m_errors_->Increment();
        SendResponse(session.get(), 0, s);
      }
      break;
    }
    m_bytes_in_->Add(payload.size() + wire::kFrameOverhead);
    uint64_t t0 = Stage::Now();

    wire::Reader hdr(payload);
    uint32_t request_id = 0;
    uint8_t op = 0;
    uint64_t trace_id = 0;
    // The trace-id header field is parsed UNCONDITIONALLY — wire
    // compatibility cannot depend on the tracing build; an untraced
    // build still has to skip the 8 bytes a stamping client sent.
    if (!hdr.U32(&request_id) || !hdr.U8(&op) ||
        ((op & wire::kTracedOpFlag) != 0 && !hdr.U64(&trace_id))) {
      // The *frame* was well-formed, so the stream stays in sync: a
      // clean error response, not a hangup.
      m_errors_->Increment();
      SendResponse(session.get(), request_id,
                   Status::InvalidArgument("short request header"));
      continue;
    }

    // Sample-profile mode: stamp a server-minted trace id on every Nth
    // otherwise-untraced request, so span timelines and slow-op dumps
    // exist without client cooperation. Client-stamped ids win.
    if (kTraceEnabled && trace_id == 0 && cfg_.trace_sample_every > 0 &&
        sample_counter_.fetch_add(1, std::memory_order_relaxed) %
                cfg_.trace_sample_every ==
            0) {
      trace_id = TraceContext::NewTraceId();
    }

    // Admission control — decided here, before anything queues, so
    // overload turns into immediate Busy responses while the backlog
    // (and therefore accepted-request latency) stays bounded.
    const char* busy_reason = nullptr;
    bool enqueued = false;
    uint64_t enqueue_ns = 0;
    // Admission engage/disengage edge, detected under mu_ but emitted
    // outside it (the event log does file I/O).
    int admission_edge = 0;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (stopping_.load(std::memory_order_relaxed) || session->closing) {
        break;
      }
      if (queued_ >= cfg_.max_queue_depth) {
        busy_reason = "server overloaded: job queue full";
        if (!admission_engaged_) {
          admission_engaged_ = true;
          admission_edge = 1;
        }
      } else if (session->pending.size() >= cfg_.max_inflight_per_session) {
        busy_reason = "session pipeline full";
      } else {
        Request req;
        req.payload = std::move(payload);
        // Every ADMITTED request is stamped here; Busy rejections never
        // construct a Request at all — so the worker records its
        // queue-wait sample unconditionally, with no runtime zero-check
        // (which used to conflate "untraced build" with "rejected
        // request" and could skip real samples).
        enqueue_ns = Stage::Now();
        req.enqueue_ns = enqueue_ns;
        req.trace_id = trace_id;
        req.t0_ns = t0;
        session->pending.push_back(std::move(req));
        ++queued_;
        g_queue_depth_->Set(queued_);
        if (!session->scheduled) {
          session->scheduled = true;
          runq_.push_back(session);
        }
        enqueued = true;
        if (admission_engaged_) {
          admission_engaged_ = false;
          admission_edge = -1;
        }
      }
    }
    if (admission_edge == 1) {
      db_->event_log().Emit(
          EventSeverity::kWarn, "server", "admission_engaged",
          "\"queue_depth\":" + std::to_string(cfg_.max_queue_depth));
    } else if (admission_edge == -1) {
      db_->event_log().Emit(EventSeverity::kInfo, "server",
                            "admission_disengaged");
    }
    if (enqueued) {
      // Frame arrival -> admitted to the queue (header parse + the
      // admission critical section). Recorded only when traced.
      Stage::Record(nullptr, "decode", trace_id, t0, enqueue_ns - t0);
      m_accepted_->Increment();
      work_cv_.notify_one();
    } else {
      m_rejected_->Increment();
      SendResponse(session.get(), request_id, Status::Busy(busy_reason));
    }
  }

  // Disconnect (or shutdown). If the session is idle, finalize right
  // here; otherwise the worker holding it (or Stop's sweep) does, when
  // it observes `closing`. The notify runs under mu_ on purpose: once
  // this thread releases the lock it never touches the Server again,
  // so Stop() cannot race the (detached) tail of this function.
  {
    std::lock_guard<std::mutex> g(mu_);
    session->closing = true;
    if (!session->scheduled && !session->finalized) {
      FinalizeSessionLocked(session);
    }
    --reader_threads_;
    reader_cv_.notify_all();
  }
}

void Server::WorkerLoop(Heartbeat* hb) {
  // Busy-scoped heartbeat: a worker parked on work_cv_ is healthy;
  // request execution (engine time, fsyncs included) is the monitored
  // window. The thread's closure owns the registration, so it
  // unregisters when the pool drains.
  for (;;) {
    std::shared_ptr<Session> session;
    Request req;
    {
      std::unique_lock<std::mutex> l(mu_);
      work_cv_.wait(l, [this] {
        return stopping_.load(std::memory_order_relaxed) || !runq_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      session = std::move(runq_.front());
      runq_.pop_front();
      if (session->closing) {
        queued_ -= static_cast<uint32_t>(session->pending.size());
        session->pending.clear();
        g_queue_depth_->Set(queued_);
        session->scheduled = false;
        if (!session->finalized) FinalizeSessionLocked(session);
        continue;
      }
      req = std::move(session->pending.front());
      session->pending.pop_front();
      --queued_;
      g_queue_depth_->Set(queued_);
    }

    // The stamp is trusted: every Request that reaches a worker was
    // stamped at admission (see ReaderLoop) — a zero check here would
    // only hide missing samples.
    Stage::Record(h_queue_wait_ns_, "queue_wait", req.trace_id,
                  req.enqueue_ns, Stage::Now() - req.enqueue_ns);
    if (cfg_.test_delay_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(cfg_.test_delay_us));
    }
    {
      // Propagate the request's trace id to everything this worker
      // calls into (commit pipeline, logs) for the request's duration.
      HeartbeatWorkScope work(hb);
      TraceContext::Scope trace_scope(req.trace_id);
      Stage stage(h_request_ns_, nullptr);
      HandleRequest(session.get(), req);
    }

    std::lock_guard<std::mutex> g(mu_);
    if (session->closing) {
      queued_ -= static_cast<uint32_t>(session->pending.size());
      session->pending.clear();
      g_queue_depth_->Set(queued_);
      session->scheduled = false;
      if (!session->finalized) FinalizeSessionLocked(session);
    } else if (!session->pending.empty()) {
      // More pipelined work: back of the queue, so sessions round-
      // robin instead of one chatty client starving the rest.
      runq_.push_back(session);
      work_cv_.notify_one();
    } else {
      session->scheduled = false;
    }
  }
}

void Server::FinalizeSessionLocked(const std::shared_ptr<Session>& session) {
  session->finalized = true;
  sessions_.erase(session->id);
  // Auto-abort: a disconnected client's open transaction must not
  // stay in flight (its writes become aborted tombstones).
  session->txn.reset();
  if (session->fd >= 0) {
    ::close(session->fd);
    session->fd = -1;
  }
  g_sessions_->Add(-1);
}

void Server::SendResponse(Session* session, uint32_t request_id,
                          const Status& s, std::string_view body) {
  std::string payload;
  payload.reserve(body.size() + 16);
  wire::PutU32(&payload, request_id);
  wire::PutU8(&payload, static_cast<uint8_t>(s.code()));
  wire::PutString(&payload, s.message());
  if (s.ok()) payload.append(body.data(), body.size());
  std::lock_guard<std::mutex> g(session->write_mu);
  if (session->fd < 0) return;
  // A failed write means the peer vanished; the reader thread will
  // observe the same and run the disconnect path.
  if (wire::WriteFrame(session->fd, payload).ok()) {
    m_bytes_out_->Add(payload.size() + wire::kFrameOverhead);
  }
}

namespace {

/// Static name of an op, for slow-op log lines (span-name lifetime
/// rules: the string must outlive any snapshot).
const char* OpName(wire::Op op) {
  switch (op) {
    case wire::Op::kPing: return "ping";
    case wire::Op::kCreateTable: return "create_table";
    case wire::Op::kListTables: return "list_tables";
    case wire::Op::kSchema: return "schema";
    case wire::Op::kBegin: return "begin";
    case wire::Op::kCommit: return "commit";
    case wire::Op::kAbort: return "abort";
    case wire::Op::kInsert: return "insert";
    case wire::Op::kRead: return "read";
    case wire::Op::kUpdate: return "update";
    case wire::Op::kDelete: return "delete";
    case wire::Op::kMultiRead: return "multiread";
    case wire::Op::kInsertBatch: return "insert_batch";
    case wire::Op::kUpdateBatch: return "update_batch";
    case wire::Op::kDeleteBatch: return "delete_batch";
    case wire::Op::kQuery: return "query";
    case wire::Op::kMetrics: return "metrics";
    case wire::Op::kTrace: return "trace";
    case wire::Op::kHealth: return "health";
  }
  return "unknown";
}

}  // namespace

void Server::HandleRequest(Session* session, const Request& req) {
  wire::Reader in(req.payload);
  uint32_t request_id = 0;
  uint8_t op = 0;
  in.U32(&request_id);
  in.U8(&op);  // both validated at admission
  if ((op & wire::kTracedOpFlag) != 0) {
    op &= static_cast<uint8_t>(~wire::kTracedOpFlag);
    uint64_t skip_trace_id = 0;
    in.U64(&skip_trace_id);  // validated and captured at admission
  }

  std::string body;
  Status s;
  {
    Stage stage(nullptr, "execute");
    s = Execute(session, static_cast<wire::Op>(op), &in, &body);
  }
  if (s.IsInvalidArgument()) m_errors_->Increment();
  {
    Stage stage(nullptr, "reply");
    SendResponse(session, request_id, s, body);
  }

  if (req.trace_id != 0) {
    // Close the root span (frame arrival -> response written), then
    // dump the assembled timeline if the request blew the slow-op
    // threshold. Root first, so the dump includes it. (An untraced
    // build has no slow-op log.)
    uint64_t total_ns = Stage::Now() - req.t0_ns;
    Stage::Record(nullptr, "request", req.trace_id, req.t0_ns, total_ns);
    SlowOpLog* slow = db_->slow_op_log();
    if (slow != nullptr && total_ns >= slow->threshold_ns()) {
      slow->Dump(req.trace_id, OpName(static_cast<wire::Op>(op)), request_id,
                 total_ns,
                 FlightRecorder::Instance().SnapshotTrace(req.trace_id));
    }
  }
}

namespace {

/// Run `fn` inside the session's open transaction if it has one,
/// else inside a fresh auto-committed one (the CLI's one-shot mode).
template <typename Fn>
Status WithTxn(Database* db, std::optional<Txn>* open, Fn&& fn) {
  if (open->has_value()) return fn(**open);
  Txn txn = db->Begin();
  Status s = fn(txn);
  if (!s.ok()) {
    txn.Abort();
    return s;
  }
  return txn.Commit();
}

}  // namespace

Status Server::Execute(Session* session, wire::Op op, wire::Reader* in,
                       std::string* resp) {
  switch (op) {
    case wire::Op::kPing:
      return Status::OK();

    case wire::Op::kCreateTable: {
      std::string name;
      uint32_t ncols = 0;
      if (!in->String(&name) || !in->U32(&ncols) || ncols == 0 ||
          ncols > 56) {
        return Status::InvalidArgument("bad CreateTable request");
      }
      std::vector<std::string> cols(ncols);
      for (auto& c : cols) {
        if (!in->String(&c)) {
          return Status::InvalidArgument("bad CreateTable request");
        }
      }
      return db_->CreateTable(name, Schema(std::move(cols)), TableConfig{});
    }

    case wire::Op::kListTables: {
      std::vector<std::string> names = db_->TableNames();
      wire::PutU32(resp, static_cast<uint32_t>(names.size()));
      for (const auto& n : names) wire::PutString(resp, n);
      return Status::OK();
    }

    case wire::Op::kSchema: {
      std::string name;
      if (!in->String(&name)) return Status::InvalidArgument("bad request");
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      const Schema& schema = table->schema();
      wire::PutU32(resp, schema.num_columns());
      for (ColumnId c = 0; c < schema.num_columns(); ++c) {
        wire::PutString(resp, schema.name(c));
      }
      return Status::OK();
    }

    case wire::Op::kBegin: {
      uint8_t iso = 0;
      if (!in->U8(&iso) || iso > 2) {
        return Status::InvalidArgument("bad isolation level");
      }
      if (session->txn.has_value()) {
        return Status::InvalidArgument("transaction already open");
      }
      session->txn.emplace(db_->Begin(static_cast<IsolationLevel>(iso)));
      return Status::OK();
    }

    case wire::Op::kCommit: {
      if (!session->txn.has_value()) {
        return Status::InvalidArgument("no open transaction");
      }
      Status s = session->txn->Commit();
      session->txn.reset();
      return s;
    }

    case wire::Op::kAbort: {
      if (!session->txn.has_value()) {
        return Status::InvalidArgument("no open transaction");
      }
      session->txn->Abort();
      session->txn.reset();
      return Status::OK();
    }

    case wire::Op::kInsert: {
      std::string name;
      std::vector<Value> row;
      if (!in->String(&name) || !in->Values(&row)) {
        return Status::InvalidArgument("bad Insert request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn,
                     [&](Txn& txn) { return table->Insert(txn, row); });
    }

    case wire::Op::kRead: {
      std::string name;
      uint64_t key = 0, mask = 0;
      if (!in->String(&name) || !in->U64(&key) || !in->U64(&mask)) {
        return Status::InvalidArgument("bad Read request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      std::vector<Value> row;
      Status s = WithTxn(db_, &session->txn, [&](Txn& txn) {
        return table->Read(txn, key, mask, &row);
      });
      if (s.ok()) wire::PutValues(resp, row);
      return s;
    }

    case wire::Op::kUpdate: {
      std::string name;
      uint64_t key = 0, mask = 0;
      std::vector<Value> row;
      if (!in->String(&name) || !in->U64(&key) || !in->U64(&mask) ||
          !in->Values(&row)) {
        return Status::InvalidArgument("bad Update request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn, [&](Txn& txn) {
        return table->Update(txn, key, mask, row);
      });
    }

    case wire::Op::kDelete: {
      std::string name;
      uint64_t key = 0;
      if (!in->String(&name) || !in->U64(&key)) {
        return Status::InvalidArgument("bad Delete request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn,
                     [&](Txn& txn) { return table->Delete(txn, key); });
    }

    case wire::Op::kMultiRead: {
      std::string name;
      uint64_t mask = 0;
      std::vector<Value> keys;
      if (!in->String(&name) || !in->U64(&mask) || !in->Values(&keys)) {
        return Status::InvalidArgument("bad MultiRead request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      std::vector<std::vector<Value>> rows;
      std::vector<Status> statuses;
      Status s = WithTxn(db_, &session->txn, [&](Txn& txn) {
        Status rs = table->MultiRead(txn, keys, mask, &rows, &statuses);
        // Per-key misses travel as per-key codes; only a call-level
        // failure (inactive txn) aborts the whole response.
        return rows.size() == keys.size() ? Status::OK() : rs;
      });
      if (!s.ok()) return s;
      wire::PutRows(resp, rows);
      wire::PutU32(resp, static_cast<uint32_t>(statuses.size()));
      for (const Status& ks : statuses) {
        wire::PutU8(resp, static_cast<uint8_t>(ks.code()));
      }
      return Status::OK();
    }

    case wire::Op::kInsertBatch: {
      std::string name;
      std::vector<std::vector<Value>> rows;
      if (!in->String(&name) || !in->Rows(&rows)) {
        return Status::InvalidArgument("bad InsertBatch request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn,
                     [&](Txn& txn) { return table->InsertBatch(txn, rows); });
    }

    case wire::Op::kUpdateBatch: {
      std::string name;
      uint64_t mask = 0;
      std::vector<Value> keys;
      std::vector<std::vector<Value>> rows;
      if (!in->String(&name) || !in->U64(&mask) || !in->Values(&keys) ||
          !in->Rows(&rows) || rows.size() != keys.size()) {
        return Status::InvalidArgument("bad UpdateBatch request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn, [&](Txn& txn) {
        return table->UpdateBatch(txn, keys, mask, rows);
      });
    }

    case wire::Op::kDeleteBatch: {
      std::string name;
      std::vector<Value> keys;
      if (!in->String(&name) || !in->Values(&keys)) {
        return Status::InvalidArgument("bad DeleteBatch request");
      }
      Table* table = db_->GetTable(name);
      if (table == nullptr) return Status::NotFound("no such table: " + name);
      return WithTxn(db_, &session->txn,
                     [&](Txn& txn) { return table->DeleteBatch(txn, keys); });
    }

    case wire::Op::kQuery:
      return ExecuteQuery(in, resp);

    case wire::Op::kMetrics:
      wire::PutString(resp, db_->Metrics().RenderPrometheus());
      return Status::OK();

    case wire::Op::kTrace:
      wire::PutString(resp, db_->DumpTrace());
      return Status::OK();

    case wire::Op::kHealth: {
      HealthReport report = db_->Health();
      wire::PutU32(resp, static_cast<uint32_t>(report.actors.size()));
      for (const ActorHealth& a : report.actors) {
        wire::PutString(resp, a.name);
        wire::PutU8(resp, static_cast<uint8_t>(a.verdict));
        wire::PutU8(resp, a.busy ? 1 : 0);
        wire::PutU64(resp, a.since_beat_ms);
        wire::PutU64(resp, a.beats);
        wire::PutU64(resp, a.slow_ms);
        wire::PutU64(resp, a.stall_ms);
      }
      wire::PutU32(resp, static_cast<uint32_t>(report.recent_events.size()));
      for (const Event& e : report.recent_events) {
        wire::PutU64(resp, e.ts_ms);
        wire::PutU8(resp, static_cast<uint8_t>(e.severity));
        wire::PutString(resp, e.actor);
        wire::PutString(resp, e.kind);
        wire::PutString(resp, e.fields);
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown opcode");
}

Status Server::ExecuteQuery(wire::Reader* in, std::string* resp) {
  std::string name;
  uint8_t kind = 0;
  uint32_t col = 0, nfilters = 0;
  uint64_t first_row = 0, row_count = 0, as_of = 0;
  if (!in->String(&name) || !in->U8(&kind) ||
      kind > static_cast<uint8_t>(wire::QueryKind::kKeys) || !in->U32(&col) ||
      !in->U64(&first_row) || !in->U64(&row_count) || !in->U64(&as_of) ||
      !in->U32(&nfilters)) {
    return Status::InvalidArgument("bad Query request");
  }
  Table* table = db_->GetTable(name);
  if (table == nullptr) return Status::NotFound("no such table: " + name);

  Query q = table->NewQuery();
  q.Range(first_row, row_count);
  if (as_of != 0) q.AsOf(as_of);
  for (uint32_t i = 0; i < nfilters; ++i) {
    uint32_t fcol = 0;
    uint64_t fval = 0;
    if (!in->U32(&fcol) || !in->U64(&fval)) {
      return Status::InvalidArgument("bad Query filter");
    }
    q.Where(fcol, fval);
  }

  uint64_t value = 0, rows = 0;
  Status s;
  switch (static_cast<wire::QueryKind>(kind)) {
    case wire::QueryKind::kSum:
      s = q.Sum(col, &value, &rows);
      break;
    case wire::QueryKind::kCount:
      s = q.Count(&value);
      rows = value;
      break;
    case wire::QueryKind::kMin:
      s = q.Min(col, &value, &rows);
      break;
    case wire::QueryKind::kMax:
      s = q.Max(col, &value, &rows);
      break;
    case wire::QueryKind::kKeys: {
      std::vector<Value> keys;
      s = q.Keys(&keys);
      if (s.ok()) wire::PutValues(resp, keys);
      return s;
    }
  }
  if (s.ok()) {
    wire::PutU64(resp, value);
    wire::PutU64(resp, rows);
  }
  return s;
}

}  // namespace lstore
