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

  if (cfg_.workers == 0) {
    uint32_t hw = std::thread::hardware_concurrency();
    cfg_.workers = std::clamp<uint32_t>((hw == 0 ? 4 : hw) / 2, 2, 8);
  }
  if (cfg_.max_queue_depth == 0) cfg_.max_queue_depth = 1;
  if (cfg_.max_inflight_per_session == 0) cfg_.max_inflight_per_session = 1;

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
  pool_ = std::make_unique<ThreadPool>(cfg_.workers);
  acceptor_ = std::thread([this] { AcceptLoop(); });
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

  // 2. Unblock every connection's reader (EOF on next recv) and wait
  //    the (detached) readers out. Each finalizes its own session:
  //    queued-but-unstarted requests drop (their clients observe the
  //    connection closing), a running one finishes, the open
  //    transaction aborts and the socket closes.
  {
    std::unique_lock<std::mutex> l(mu_);
    for (auto& [id, s] : sessions_) ::shutdown(s->fd, SHUT_RDWR);
    reader_cv_.wait(l, [this] { return reader_threads_ == 0; });
  }

  // 3. Every session queue is stopped: nothing runs on the pool.
  pool_.reset();
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

    auto session = std::make_shared<Session>(*pool_);
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
  // the client (healthy); only frame processing counts as work. The
  // session's own actor is busy while one of its requests runs. Both
  // unregister when the connection ends.
  std::shared_ptr<Heartbeat> hb =
      db_->health().Register("server.reader." + std::to_string(session->id));
  session->hb =
      db_->health().Register("server.session." + std::to_string(session->id));
  for (;;) {
    Request req;
    Status s = wire::ReadFrame(session->fd, cfg_.max_frame_bytes, &req.body);
    HeartbeatWorkScope work(hb.get());
    if (!s.ok()) {
      if (s.IsCorruption() || s.IsInvalidArgument()) {
        // A checksum mismatch or a hostile length header leaves the
        // stream position unknowable: report once, then hang up.
        m_errors_->Increment();
        Send(session.get(), wire::ResponseFrame(0, s));
      }
      break;
    }
    m_bytes_in_->Add(req.body.size() + wire::kFrameOverhead);
    uint64_t t0 = Stage::Now();

    if (!wire::ParseRequestHeader(&req.body, &req.header)) {
      // The *frame* was well-formed, so the stream stays in sync: a
      // clean error response, not a hangup.
      m_errors_->Increment();
      Status bad = Status::InvalidArgument("short request header");
      Send(session.get(), wire::ResponseFrame(req.header.id, bad));
      continue;
    }

    // Sample-profile mode: stamp a server-minted trace id on every Nth
    // otherwise-untraced request, so span timelines and slow-op dumps
    // exist without client cooperation. Client-stamped ids win.
    if (kTraceEnabled && req.header.trace_id == 0 &&
        cfg_.trace_sample_every > 0 &&
        sample_counter_.fetch_add(1, std::memory_order_relaxed) %
                cfg_.trace_sample_every ==
            0) {
      req.header.trace_id = TraceContext::NewTraceId();
    }
    const uint64_t trace_id = req.header.trace_id;

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
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (queued_ >= cfg_.max_queue_depth) {
        busy_reason = "server overloaded: job queue full";
        if (!admission_engaged_) {
          admission_engaged_ = true;
          admission_edge = 1;
        }
      } else if (session->pending >= cfg_.max_inflight_per_session) {
        busy_reason = "session pipeline full";
      } else {
        // Every ADMITTED request is stamped here (Busy rejections never
        // reach the pool), so its task records the queue-wait sample
        // unconditionally, with no runtime zero-check.
        enqueue_ns = Stage::Now();
        req.enqueue_ns = enqueue_ns;
        req.t0_ns = t0;
        ++session->pending;
        ++queued_;
        g_queue_depth_->Set(queued_);
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
      session->queue.Post([this, s = session.get(), req = std::move(req)] {
        RunRequest(s, req);
      });
    } else {
      m_rejected_->Increment();
      Send(session.get(),
           wire::ResponseFrame(req.header.id, Status::Busy(busy_reason)));
    }
  }

  // Disconnect (or shutdown): drop the queued requests and wait out
  // the running one, so nothing else touches the session. Auto-abort:
  // a disconnected client's open transaction must not stay in flight
  // (its writes become aborted tombstones). The notify runs under mu_
  // on purpose: once this thread releases the lock it never touches
  // the Server again, so Stop() cannot race the (detached) tail of
  // this function.
  session->queue.Stop();
  session->txn.reset();
  std::lock_guard<std::mutex> g(mu_);
  queued_ -= session->pending;
  g_queue_depth_->Set(queued_);
  sessions_.erase(session->id);
  ::close(session->fd);
  g_sessions_->Add(-1);
  --reader_threads_;
  reader_cv_.notify_all();
}

void Server::RunRequest(Session* session, const Request& req) {
  {
    std::lock_guard<std::mutex> g(mu_);
    --session->pending;
    --queued_;
    g_queue_depth_->Set(queued_);
  }
  // The stamp is trusted: every Request that reaches the pool was
  // stamped at admission (see ReaderLoop) — a zero check here would
  // only hide missing samples.
  Stage::Record(h_queue_wait_ns_, "queue_wait", req.header.trace_id,
                req.enqueue_ns, Stage::Now() - req.enqueue_ns);
  if (cfg_.test_delay_us != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(cfg_.test_delay_us));
  }
  // Propagate the request's trace id to everything this task calls
  // into (commit pipeline, logs) for the request's duration.
  HeartbeatWorkScope work(session->hb.get());
  TraceContext::Scope trace_scope(req.header.trace_id);
  Stage stage(h_request_ns_, nullptr);
  HandleRequest(session, req);
}

void Server::Send(Session* session, const std::string& frame) {
  std::lock_guard<std::mutex> g(session->write_mu);
  // A failed write means the peer vanished; the reader thread will
  // observe the same and run the disconnect path.
  if (wire::SendFrame(session->fd, frame).ok()) {
    m_bytes_out_->Add(frame.size());
  }
}

void Server::HandleRequest(Session* session, const Request& req) {
  std::string frame;
  Status s;
  {
    Stage stage(nullptr, "execute");
    s = Execute(session, req, &frame);
  }
  if (s.IsInvalidArgument()) m_errors_->Increment();
  {
    Stage stage(nullptr, "reply");
    if (!s.ok()) frame = wire::ResponseFrame(req.header.id, s);
    Send(session, frame);
  }

  const wire::RequestHeader& h = req.header;
  if (h.trace_id != 0) {
    // Close the root span (frame arrival -> response written), then
    // dump the assembled timeline if the request blew the slow-op
    // threshold. Root first, so the dump includes it. (An untraced
    // build has no slow-op log.)
    uint64_t total_ns = Stage::Now() - req.t0_ns;
    Stage::Record(nullptr, "request", h.trace_id, req.t0_ns, total_ns);
    SlowOpLog* slow = db_->slow_op_log();
    if (slow != nullptr && total_ns >= slow->threshold_ns()) {
      slow->Dump(h.trace_id, wire::OpName(h.op), h.id, total_ns,
                 FlightRecorder::Instance().SnapshotTrace(h.trace_id));
    }
  }
}

namespace {

/// Run `fn(table, txn)` inside the session's open transaction if it has
/// one, else inside a fresh auto-committed one (the CLI's one-shot
/// mode).
template <typename Fn>
Status WithTable(Database* db, std::optional<Txn>* open,
                 const std::string& name, Fn&& fn) {
  Table* table = db->GetTable(name);
  if (table == nullptr) return Status::NotFound("no such table: " + name);
  if (open->has_value()) return fn(*table, **open);
  Txn txn = db->Begin();
  Status s = fn(*table, txn);
  // A failed op leaves txn to abort as it goes out of scope.
  return s.ok() ? txn.Commit() : s;
}

}  // namespace

template <wire::Op op, typename Fn>
Status Server::Serve(const Request& req, std::string* frame, Fn&& fn) {
  wire::RequestOf<op> in;
  if (!wire::Decode(req.body, &in)) {
    return Status::InvalidArgument(std::string("bad ") + wire::OpName(op) +
                                   " request");
  }
  wire::ResponseOf<op> out;
  Status s = fn(in, &out);
  if (s.ok()) *frame = wire::ResponseFrame(req.header.id, s, out);
  return s;
}

Status Server::Execute(Session* session, const Request& req,
                       std::string* frame) {
  using wire::Op;
  std::optional<Txn>* txn = &session->txn;
  switch (req.header.op) {
    case Op::kPing:
      return Serve<Op::kPing>(req, frame,
                              [](auto&, auto*) { return Status::OK(); });

    case Op::kCreateTable:
      return Serve<Op::kCreateTable>(req, frame, [&](auto& r, auto*) {
        return db_->CreateTable(r.table, Schema(std::move(r.columns)),
                                TableConfig{});
      });

    case Op::kListTables:
      return Serve<Op::kListTables>(req, frame, [&](auto&, auto* names) {
        *names = db_->TableNames();
        return Status::OK();
      });

    case Op::kSchema:
      return Serve<Op::kSchema>(req, frame, [&](auto& name, auto* columns) {
        Table* table = db_->GetTable(name);
        if (table == nullptr) return Status::NotFound("no such table: " + name);
        *columns = table->schema().names();
        return Status::OK();
      });

    case Op::kBegin:
      return Serve<Op::kBegin>(req, frame, [&](auto& iso, auto*) {
        if (txn->has_value()) {
          return Status::InvalidArgument("transaction already open");
        }
        txn->emplace(db_->Begin(iso));
        return Status::OK();
      });

    case Op::kCommit:
      return Serve<Op::kCommit>(req, frame, [&](auto&, auto*) {
        if (!txn->has_value()) {
          return Status::InvalidArgument("no open transaction");
        }
        Status s = (*txn)->Commit();
        txn->reset();
        return s;
      });

    case Op::kAbort:
      return Serve<Op::kAbort>(req, frame, [&](auto&, auto*) {
        if (!txn->has_value()) {
          return Status::InvalidArgument("no open transaction");
        }
        (*txn)->Abort();
        txn->reset();
        return Status::OK();
      });

    case Op::kInsert:
      return Serve<Op::kInsert>(req, frame, [&](auto& r, auto*) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.Insert(tx, r.row);
        });
      });

    case Op::kRead:
      return Serve<Op::kRead>(req, frame, [&](auto& r, auto* row) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.Read(tx, r.key, r.mask, row);
        });
      });

    case Op::kUpdate:
      return Serve<Op::kUpdate>(req, frame, [&](auto& r, auto*) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.Update(tx, r.key, r.mask, r.row);
        });
      });

    case Op::kDelete:
      return Serve<Op::kDelete>(req, frame, [&](auto& r, auto*) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.Delete(tx, r.key);
        });
      });

    case Op::kMultiRead:
      return Serve<Op::kMultiRead>(req, frame, [&](auto& r, auto* out) {
        std::vector<Status> statuses;
        LSTORE_RETURN_IF_ERROR(
            WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
              Status rs = t.MultiRead(tx, r.keys, r.mask, &out->rows,
                                      &statuses);
              // Per-key misses travel as per-key codes; only a
              // call-level failure (inactive txn) fails the response.
              return out->rows.size() == r.keys.size() ? Status::OK() : rs;
            }));
        for (const Status& ks : statuses) out->codes.push_back(ks.code());
        return Status::OK();
      });

    case Op::kInsertBatch:
      return Serve<Op::kInsertBatch>(req, frame, [&](auto& r, auto*) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.InsertBatch(tx, r.rows);
        });
      });

    case Op::kUpdateBatch:
      return Serve<Op::kUpdateBatch>(req, frame, [&](auto& r, auto*) {
        if (r.rows.size() != r.keys.size()) {
          return Status::InvalidArgument("bad update_batch request");
        }
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.UpdateBatch(tx, r.keys, r.mask, r.rows);
        });
      });

    case Op::kDeleteBatch:
      return Serve<Op::kDeleteBatch>(req, frame, [&](auto& r, auto*) {
        return WithTable(db_, txn, r.table, [&](Table& t, Txn& tx) {
          return t.DeleteBatch(tx, r.keys);
        });
      });

    case Op::kQuery:
      return Serve<Op::kQuery>(req, frame, [&](auto& q, auto* out) {
        return RunQuery(q, out);
      });

    case Op::kMetrics:
      return Serve<Op::kMetrics>(req, frame, [&](auto&, auto* text) {
        *text = db_->Metrics().RenderPrometheus();
        return Status::OK();
      });

    case Op::kTrace:
      return Serve<Op::kTrace>(req, frame, [&](auto&, auto* json) {
        *json = db_->DumpTrace();
        return Status::OK();
      });

    case Op::kHealth:
      return Serve<Op::kHealth>(req, frame, [&](auto&, auto* report) {
        *report = db_->Health();
        return Status::OK();
      });
  }
  return Status::InvalidArgument("unknown opcode");
}

Status Server::RunQuery(const wire::QueryRequest& q,
                        wire::QueryResponse* out) {
  Table* table = db_->GetTable(q.table);
  if (table == nullptr) return Status::NotFound("no such table: " + q.table);
  Query query = table->NewQuery();
  query.Range(q.spec.first_row, q.spec.row_count);
  if (q.spec.as_of != 0) query.AsOf(q.spec.as_of);
  for (const auto& [col, value] : q.spec.where) query.Where(col, value);

  wire::Aggregate& agg = std::get<wire::Aggregate>(*out);
  switch (q.kind) {
    case wire::QueryKind::kKeys:
      return query.Keys(&out->emplace<wire::Row>());
    case wire::QueryKind::kSum:
      return query.Sum(q.column, &agg.value, &agg.rows);
    case wire::QueryKind::kCount: {
      Status s = query.Count(&agg.value);
      agg.rows = agg.value;
      return s;
    }
    case wire::QueryKind::kMin:
      return query.Min(q.column, &agg.value, &agg.rows);
    case wire::QueryKind::kMax:
      return query.Max(q.column, &agg.value, &agg.rows);
  }
  return Status::OK();
}

}  // namespace lstore
