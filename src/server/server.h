// Network service layer: multi-client sessions over TCP, scheduled
// onto the commit pipeline and Query executor by a bounded worker
// pool with admission control.
//
// The engine so far is embedded — one process owns the Database. The
// Server turns it into a system: it accepts many concurrent client
// connections, gives each a *session* (per-connection transaction
// state: at most one open Txn, auto-aborted on disconnect, so a
// vanished client can never leak an in-flight transaction), and
// drains their requests through a job queue onto a fixed pool of
// worker threads.
//
// Scheduling model (the ROADMAP's host/job-queue shape):
//
//   reader thread (1/connection)        workers (cfg.workers)
//     decode frame                        pop session from run queue
//     admission check ──Busy──> client    execute ONE request
//     append to session queue             write response
//     schedule session on run queue       reschedule if more pending
//
// A session executes at most one request at a time (its open Txn is
// single-threaded state), so per-session order is request order;
// across sessions, workers round-robin the run queue. Admission
// control is applied by the *reader*, before anything queues: when
// the global backlog reaches cfg.max_queue_depth, or the session
// already has cfg.max_inflight_per_session requests pending, the
// request is answered `Busy` immediately — overload degrades into
// fast rejections instead of unbounded queueing, and accepted-request
// latency stays bounded by the queue depth.
//
// Observability: sessions/queue-depth gauges, accepted/rejected/
// errored counters, queue-wait and request-latency histograms — all
// in the owning Database's MetricsRegistry (lstore_server_*), so one
// METRICS request (or Database::Metrics()) shows the front-end and
// the engine side by side.

#ifndef LSTORE_SERVER_SERVER_H_
#define LSTORE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "server/wire.h"

namespace lstore {

struct ServerConfig {
  /// Listen address. Loopback by default: exposing the engine beyond
  /// the host is a deployment decision, not a default.
  std::string host = "127.0.0.1";

  /// TCP port; 0 = ephemeral (read the chosen one from port()).
  uint16_t port = 0;

  /// Worker threads draining the job queue (the only threads that
  /// touch the engine). 0 = auto: half the hardware threads, in
  /// [2, 8] — commit work blocks on fsync, so more workers than
  /// cores is fine; the scan pool handles query parallelism.
  uint32_t workers = 0;

  /// Admission control: total requests queued across all sessions
  /// beyond which new requests are answered Busy immediately.
  uint32_t max_queue_depth = 256;

  /// Admission control: requests one session may have queued at once
  /// (a pipelining client that outruns this gets Busy).
  uint32_t max_inflight_per_session = 16;

  /// Per-frame payload cap for requests arriving on a connection.
  uint32_t max_frame_bytes = wire::kDefaultMaxFrameBytes;

  /// Resize the process-wide scan pool (ThreadPool::Shared) so server
  /// workers + Query partitions together match the core budget:
  /// 0 = auto (hardware threads minus resolved worker count, min 1),
  /// UINT32_MAX = leave the shared pool alone.
  uint32_t scan_threads = 0;

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

  /// Bind, listen, and start the acceptor + worker threads.
  Status Start();

  /// Stop accepting, unblock every connection, drain the workers, and
  /// finalize every session (open transactions abort). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (after Start; resolves port 0).
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Request {
    std::string payload;
    uint64_t enqueue_ns = 0;
    uint64_t trace_id = 0;  ///< wire-header trace id (0 = untraced)
    uint64_t t0_ns = 0;     ///< frame arrival; origin of the root span
  };

  /// One connected client: its socket, transaction state, and queued
  /// requests. Owned jointly by the session map, the run queue, and
  /// the reader thread via shared_ptr; *finalized* (txn aborted, fd
  /// closed, map entry erased) exactly once, by whichever of
  /// reader/worker/Stop observes it idle and closing last.
  struct Session {
    uint64_t id = 0;
    int fd = -1;
    /// Serializes response frames onto the socket (worker responses
    /// and reader-side Busy rejections interleave).
    std::mutex write_mu;
    /// The session's open transaction, if any (server-side state of
    /// BEGIN/COMMIT/ABORT). Only the executing worker touches it.
    std::optional<Txn> txn;

    // --- guarded by Server::mu_ ---
    std::deque<Request> pending;
    bool scheduled = false;  ///< in runq_ or executing on a worker
    bool closing = false;    ///< reader saw EOF/error or Stop() ran
    bool finalized = false;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Session> session);
  void WorkerLoop(Heartbeat* hb);

  /// Decode and execute one request, writing its response.
  void HandleRequest(Session* session, const Request& req);
  /// Execute `op` against db_, appending the response body to *resp.
  Status Execute(Session* session, wire::Op op, wire::Reader* in,
                 std::string* resp);
  Status ExecuteQuery(wire::Reader* in, std::string* resp);

  /// Write a [request_id][code][message] (+body) response frame.
  void SendResponse(Session* session, uint32_t request_id, const Status& s,
                    std::string_view body = {});

  /// Abort the open txn, close the socket, and drop the map entry.
  /// Caller holds mu_; runs at most once per session.
  void FinalizeSessionLocked(const std::shared_ptr<Session>& session);

  Database* db_;
  ServerConfig cfg_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: runq_ / stopping_
  std::condition_variable reader_cv_; ///< Stop(): reader_threads_ == 0
  std::deque<std::shared_ptr<Session>> runq_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  uint32_t reader_threads_ = 0;  ///< live (detached) reader threads
  uint32_t queued_ = 0;          ///< total pending requests (admission)
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
