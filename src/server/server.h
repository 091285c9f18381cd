// Network service layer: multi-client sessions over TCP, each a serial
// queue of requests on a bounded thread pool, behind admission
// control.
//
// The engine so far is embedded — one process owns the Database. The
// Server turns it into a system: it accepts many concurrent client
// connections, gives each a *session* (per-connection transaction
// state: at most one open Txn, auto-aborted on disconnect, so a
// vanished client can never leak an in-flight transaction), and runs
// their requests as tasks on a pool of cfg.workers threads that the
// Server owns.
//
// Scheduling model (the ROADMAP's host/job-queue shape):
//
//   reader thread (1/connection)        server pool (cfg.workers)
//     decode frame                        run the front request of
//     admission check ──Busy──> client      one session's queue
//     post to the session's SerialQueue   write its response
//                                         re-post the queue if more wait
//
// A session executes at most one request at a time (its open Txn is
// single-threaded state), so per-session order is request order;
// across sessions, each queue re-posts itself behind the others after
// every request, so sessions round-robin the pool and one chatty
// client cannot starve the rest. Admission control is applied by the
// *reader*, before anything queues: when the global backlog reaches
// cfg.max_queue_depth, or the session already has
// cfg.max_inflight_per_session requests waiting, the request is
// answered `Busy` immediately — overload degrades into fast rejections
// instead of unbounded queueing, and accepted-request latency stays
// bounded by the queue depth. On disconnect the reader stops the
// session's queue (queued requests drop, the running one finishes),
// aborts the open Txn and closes the socket.
//
// Observability: sessions/queue-depth gauges, accepted/rejected/
// errored counters, queue-wait and request-latency histograms — all
// in the owning Database's MetricsRegistry (lstore_server_*), so one
// METRICS request (or Database::Metrics()) shows the front-end and
// the engine side by side. Each session registers two health actors:
// `server.reader.<id>` (busy while a frame is decoded) and
// `server.session.<id>` (busy while one of its requests runs).

#ifndef LSTORE_SERVER_SERVER_H_
#define LSTORE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "server/wire.h"

namespace lstore {

struct ServerConfig {
  /// Listen address. Loopback by default: exposing the engine beyond
  /// the host is a deployment decision, not a default.
  std::string host = "127.0.0.1";

  /// TCP port; 0 = ephemeral (read the chosen one from port()).
  uint16_t port = 0;

  /// Threads of the server's pool, which runs the sessions' requests
  /// (the only threads that touch the engine). 0 = auto: half the
  /// hardware threads, in [2, 8] — commit work blocks on fsync, so
  /// more workers than cores is fine; the scan pool handles query
  /// parallelism.
  uint32_t workers = 0;

  /// Admission control: total requests queued across all sessions
  /// beyond which new requests are answered Busy immediately.
  uint32_t max_queue_depth = 256;

  /// Admission control: requests one session may have queued at once
  /// (a pipelining client that outruns this gets Busy).
  uint32_t max_inflight_per_session = 16;

  /// Per-frame payload cap for requests arriving on a connection.
  uint32_t max_frame_bytes = wire::kDefaultMaxFrameBytes;

  /// Sample-profile mode: mint a server-side trace id on every Nth
  /// un-flagged request (0 = off), so a fleet gets span timelines and
  /// slow-op dumps without any client stamping ids. Client-stamped
  /// requests keep their own id and do not consume a sample slot.
  uint64_t trace_sample_every = 0;

  /// Test hook: stall each request this long before executing, so
  /// tests can fill the queue deterministically and prove Busy.
  uint64_t test_delay_us = 0;
};

/// Counters a test/bench can read without scraping the registry.
struct ServerStats {
  uint64_t accepted = 0;       ///< requests admitted to the queue
  uint64_t rejected_busy = 0;  ///< requests answered Busy at admission
  uint64_t errors = 0;         ///< malformed frames / payloads
  uint64_t sessions_active = 0;
  uint64_t queue_depth = 0;
};

class Server {
 public:
  /// Serve `db` (not owned; must outlive Stop()).
  Server(Database* db, ServerConfig config);
  ~Server();  ///< Stop()s if still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the acceptor and the request pool.
  Status Start();

  /// Stop accepting, unblock every connection, wait until each reader
  /// has finalized its session (queued requests drop, running ones
  /// finish, open transactions abort), and destroy the pool. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (after Start; resolves port 0).
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Request {
    /// Parsed once, by the reader: id, op and trace id (0 = untraced).
    wire::RequestHeader header;
    std::string body;        ///< the payload after the header
    uint64_t enqueue_ns = 0;
    uint64_t t0_ns = 0;      ///< frame arrival; origin of the root span
  };

  /// One connected client: its socket, transaction state, and request
  /// queue. Held by the session map and by its reader thread, which
  /// finalizes it (queue stopped, txn aborted, fd closed, map entry
  /// erased) when the connection ends.
  struct Session {
    explicit Session(ThreadPool& pool) : queue(pool) {}

    uint64_t id = 0;
    int fd = -1;
    /// Serializes response frames onto the socket (request responses
    /// and reader-side Busy rejections interleave).
    std::mutex write_mu;
    /// The session's open transaction, if any (server-side state of
    /// BEGIN/COMMIT/ABORT). Only the session's queue touches it.
    std::optional<Txn> txn;
    /// `server.session.<id>`: busy while one of its requests runs.
    std::shared_ptr<Heartbeat> hb;
    /// The admitted requests, run one at a time on the server's pool.
    SerialQueue queue;
    uint32_t pending = 0;  ///< admitted, not yet started; under mu_
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Session> session);

  /// A session queue's task: leave the backlog, then HandleRequest.
  void RunRequest(Session* session, const Request& req);
  /// Execute one request and write its response.
  void HandleRequest(Session* session, const Request& req);
  /// Execute req against db_; an OK reply's frame goes to *frame.
  Status Execute(Session* session, const Request& req, std::string* frame);
  /// Decode req's body as op's request, run fn(request, &response), and
  /// on success encode the reply frame: one Execute case per op.
  template <wire::Op op, typename Fn>
  static Status Serve(const Request& req, std::string* frame, Fn&& fn);
  /// kQuery: run the request's Query into the reply shape its kind picks.
  Status RunQuery(const wire::QueryRequest& q, wire::QueryResponse* resp);

  /// Write one response frame onto the session's socket.
  void Send(Session* session, const std::string& frame);

  Database* db_;
  ServerConfig cfg_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::unique_ptr<ThreadPool> pool_;  ///< runs the sessions' queues

  mutable std::mutex mu_;
  std::condition_variable reader_cv_; ///< Stop(): reader_threads_ == 0
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  uint32_t reader_threads_ = 0;  ///< live (detached) reader threads
  uint32_t queued_ = 0;          ///< total waiting requests (admission)
  bool admission_engaged_ = false;  ///< queue-full Busy mode (event edge)

  /// Round-robin counter for trace_sample_every (all readers share it
  /// so the sampling rate is global, not per-connection).
  std::atomic<uint64_t> sample_counter_{0};

  // Registry handles (owned by db_->metrics(); valid for db_'s life).
  Counter* m_accepted_ = nullptr;
  Counter* m_rejected_ = nullptr;
  Counter* m_errors_ = nullptr;
  Counter* m_connections_ = nullptr;
  Counter* m_bytes_in_ = nullptr;
  Counter* m_bytes_out_ = nullptr;
  Gauge* g_sessions_ = nullptr;
  Gauge* g_queue_depth_ = nullptr;
  Histogram* h_queue_wait_ns_ = nullptr;
  Histogram* h_request_ns_ = nullptr;
};

}  // namespace lstore

#endif  // LSTORE_SERVER_SERVER_H_
