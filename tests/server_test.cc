// Network service layer tests (src/server/): wire-codec robustness
// (torn / oversized / bit-flipped frames, mirroring archive_test's
// torn-segment style), the full request surface over a real TCP
// loopback socket, per-session transaction isolation, auto-abort on
// disconnect, admission-control Busy under a tiny queue bound, 32
// concurrent sessions of mixed traffic (the TSan target), and clean
// shutdown with requests in flight.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/query.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace lstore {
namespace {

// --- harness ---------------------------------------------------------------

/// In-memory Database + Server on an ephemeral loopback port.
/// (Server is declared after db so it stops before the engine dies.)
struct TestServer {
  Database db;
  std::unique_ptr<Server> server;

  Status Start(ServerConfig cfg = {}) {
    server = std::make_unique<Server>(&db, cfg);
    return server->Start();
  }
  uint16_t port() const { return server->port(); }
  ServerStats stats() const { return server->stats(); }
};

Status Connect(const TestServer& ts, Client* c) {
  return c->Connect("127.0.0.1", ts.port());
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- raw-socket helpers (for pipelining and fuzzing) -----------------------

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendRaw(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return;  // peer hung up mid-fuzz: that is fine
    off += static_cast<size_t>(n);
  }
}

/// Frame a payload exactly as wire::WriteFrame does.
std::string Frame(const std::string& payload) {
  std::string f;
  wire::PutU32(&f, static_cast<uint32_t>(payload.size()));
  f.append(payload);
  wire::PutU32(&f, Crc32c(payload.data(), payload.size()));
  return f;
}

std::string PingPayload(uint32_t request_id) {
  std::string p;
  wire::PutU32(&p, request_id);
  wire::PutU8(&p, static_cast<uint8_t>(wire::Op::kPing));
  return p;
}

/// Read one response frame; returns false on EOF/error.
bool ReadResponse(int fd, uint32_t* id, uint8_t* code) {
  std::string payload;
  if (!wire::ReadFrame(fd, wire::kDefaultMaxFrameBytes, &payload).ok()) {
    return false;
  }
  wire::Reader in(payload);
  std::string msg;
  return in.U32(id) && in.U8(code) && in.String(&msg);
}

// --- scan-pool sizing (must run first: the pool is built lazily) -----------

TEST(ScanPoolConfig, FirstConfigurationWins) {
  if (std::getenv("LSTORE_SCAN_THREADS") != nullptr) {
    GTEST_SKIP() << "LSTORE_SCAN_THREADS overrides ConfigureShared";
  }
  // First configuration (before any Shared() use in this process)
  // sticks; re-stating the same value is still accepted.
  EXPECT_TRUE(ThreadPool::ConfigureShared(2));
  EXPECT_TRUE(ThreadPool::ConfigureShared(2));
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 2u);
  // The pool exists now: later reconfiguration attempts (e.g. a
  // Server::Start in the tests below) are advisory no-ops.
  EXPECT_FALSE(ThreadPool::ConfigureShared(5));
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 2u);
}

// --- wire codec ------------------------------------------------------------

TEST(WireCodec, ReaderRejectsHostileCounts) {
  // A Values count of 2^31 with 4 bytes of payload behind it must
  // fail before allocating, not reserve gigabytes.
  std::string buf;
  wire::PutU32(&buf, 0x80000000u);
  wire::PutU32(&buf, 7);
  wire::Reader in(buf);
  std::vector<Value> vs;
  EXPECT_FALSE(in.Values(&vs));
  EXPECT_FALSE(in.ok());

  std::string rows_buf;
  wire::PutU32(&rows_buf, 0xffffffffu);
  wire::Reader in2(rows_buf);
  std::vector<std::vector<Value>> rows;
  EXPECT_FALSE(in2.Rows(&rows));
}

TEST(WireCodec, RoundTrip) {
  std::string buf;
  wire::PutU8(&buf, 200);
  wire::PutU32(&buf, 0xdeadbeef);
  wire::PutU64(&buf, ~0ull - 1);
  wire::PutString(&buf, "hello");
  wire::PutValues(&buf, {1, kNull, 3});
  wire::PutRows(&buf, {{4, 5}, {}});

  wire::Reader in(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  std::vector<Value> vs;
  std::vector<std::vector<Value>> rows;
  ASSERT_TRUE(in.U8(&u8));
  ASSERT_TRUE(in.U32(&u32));
  ASSERT_TRUE(in.U64(&u64));
  ASSERT_TRUE(in.String(&s));
  ASSERT_TRUE(in.Values(&vs));
  ASSERT_TRUE(in.Rows(&rows));
  EXPECT_TRUE(in.done());
  EXPECT_EQ(u8, 200);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, ~0ull - 1);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(vs, (std::vector<Value>{1, kNull, 3}));
  EXPECT_EQ(rows, (std::vector<std::vector<Value>>{{4, 5}, {}}));
}

// --- full request surface over one connection ------------------------------

TEST(ServerTest, RoundTripCatalogPointAndQueryOps) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());

  EXPECT_TRUE(c.Ping().ok());

  ASSERT_TRUE(c.CreateTable("acct", {"id", "bal", "flag"}).ok());
  EXPECT_TRUE(c.CreateTable("acct", {"id", "bal", "flag"}).IsAlreadyExists());
  std::vector<std::string> names;
  ASSERT_TRUE(c.ListTables(&names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"acct"});
  std::vector<std::string> cols;
  ASSERT_TRUE(c.GetSchema("acct", &cols).ok());
  EXPECT_EQ(cols, (std::vector<std::string>{"id", "bal", "flag"}));
  EXPECT_TRUE(c.GetSchema("nope", &cols).IsNotFound());

  // Point ops (auto-committed one-shots).
  for (Value k = 0; k < 10; ++k) {
    ASSERT_TRUE(c.Insert("acct", {k, k * 10, k % 2}).ok());
  }
  std::vector<Value> row;
  ASSERT_TRUE(c.Read("acct", 5, ~0ull, &row).ok());
  EXPECT_EQ(row, (std::vector<Value>{5, 50, 1}));
  ASSERT_TRUE(c.Update("acct", 5, 1ull << 1, {5, 500, 1}).ok());
  ASSERT_TRUE(c.Read("acct", 5, ~0ull, &row).ok());
  EXPECT_EQ(row[1], 500u);
  ASSERT_TRUE(c.Delete("acct", 9).ok());
  EXPECT_TRUE(c.Read("acct", 9, ~0ull, &row).IsNotFound());

  // MultiRead: per-key outcomes travel inside an OK response.
  std::vector<std::vector<Value>> rows;
  std::vector<Status> statuses;
  ASSERT_TRUE(c.MultiRead("acct", {1, 2, 42}, ~0ull, &rows, &statuses).ok());
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<Value>{1, 10, 1}));
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].IsNotFound());

  // Batch ops.
  std::vector<std::vector<Value>> batch;
  for (Value k = 100; k < 132; ++k) batch.push_back({k, 7, 0});
  ASSERT_TRUE(c.InsertBatch("acct", batch).ok());
  ASSERT_TRUE(c.UpdateBatch("acct", {100, 101}, 1ull << 1,
                            {{100, 9, 0}, {101, 9, 0}})
                  .ok());
  ASSERT_TRUE(c.DeleteBatch("acct", {130, 131}).ok());

  // Queries: range, where, aggregate kinds.
  uint64_t count = 0;
  ASSERT_TRUE(c.Count("acct", {}, &count).ok());
  EXPECT_EQ(count, 9u + 30u);  // 10-1 point rows + 32-2 batch rows
  uint64_t sum = 0, seen = 0;
  Client::QuerySpec odd;
  odd.where = {{2, 1}};  // flag == 1
  ASSERT_TRUE(c.Sum("acct", 1, odd, &sum, &seen).ok());
  EXPECT_EQ(seen, 4u);    // odd point keys 1,3,5,7 (9 was deleted)
  EXPECT_EQ(sum, 610u);   // 10 + 30 + 500 (updated) + 70
  Value mn = 0, mx = 0;
  ASSERT_TRUE(c.Min("acct", 0, {}, &mn).ok());
  EXPECT_EQ(mn, 0u);
  ASSERT_TRUE(c.Max("acct", 0, {}, &mx).ok());
  EXPECT_EQ(mx, 129u);
  std::vector<Value> keys;
  Client::QuerySpec spec;
  spec.where = {{1, 9}};  // bal == 9 (the two updated batch rows)
  ASSERT_TRUE(c.Keys("acct", spec, &keys).ok());
  EXPECT_EQ(keys, (std::vector<Value>{100, 101}));

  // Time travel: a timestamp taken now must hide later writes.
  Timestamp now = ts.db.Begin().begin_time();
  ASSERT_TRUE(c.Insert("acct", {900, 1, 1}).ok());
  Client::QuerySpec as_of;
  as_of.as_of = now;
  uint64_t then_count = 0;
  ASSERT_TRUE(c.Count("acct", as_of, &then_count).ok());
  EXPECT_EQ(then_count, count);
  ASSERT_TRUE(c.Count("acct", {}, &then_count).ok());
  EXPECT_EQ(then_count, count + 1);

  // Unknown opcode → clean InvalidArgument, connection stays usable.
  {
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    std::string p;
    wire::PutU32(&p, 77);
    wire::PutU8(&p, 200);  // no such op
    SendRaw(fd, Frame(p));
    uint32_t id = 0;
    uint8_t code = 0;
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 77u);
    EXPECT_EQ(code, static_cast<uint8_t>(Status::Code::kInvalidArgument));
    SendRaw(fd, Frame(PingPayload(78)));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 78u);
    EXPECT_EQ(code, 0);
    ::close(fd);
  }

  // Metrics over the protocol: server and engine families together.
  std::string text;
  ASSERT_TRUE(c.Metrics(&text).ok());
  EXPECT_NE(text.find("lstore_server_requests_total"), std::string::npos);
  EXPECT_NE(text.find("lstore_server_sessions"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lstore_server_requests_total counter"),
            std::string::npos);
}

// --- transactions and per-session isolation --------------------------------

TEST(ServerTest, TxnLifecycleAndPerSessionIsolation) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  Client a, b;
  ASSERT_TRUE(Connect(ts, &a).ok());
  ASSERT_TRUE(Connect(ts, &b).ok());
  ASSERT_TRUE(a.CreateTable("t", {"k", "v"}).ok());

  // Uncommitted writes are invisible to the other session.
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Insert("t", {1, 10}).ok());
  uint64_t count = ~0ull;
  ASSERT_TRUE(b.Count("t", {}, &count).ok());
  EXPECT_EQ(count, 0u);
  std::vector<Value> row;
  EXPECT_TRUE(b.Read("t", 1, ~0ull, &row).IsNotFound());
  ASSERT_TRUE(a.Commit().ok());
  ASSERT_TRUE(b.Count("t", {}, &count).ok());
  EXPECT_EQ(count, 1u);

  // Abort discards.
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Insert("t", {2, 20}).ok());
  ASSERT_TRUE(a.Abort().ok());
  EXPECT_TRUE(b.Read("t", 2, ~0ull, &row).IsNotFound());

  // Session state machine: one open txn per session, no stray commits.
  ASSERT_TRUE(a.Begin().ok());
  EXPECT_TRUE(a.Begin().IsInvalidArgument());
  ASSERT_TRUE(a.Abort().ok());
  EXPECT_TRUE(a.Commit().IsInvalidArgument());
  EXPECT_TRUE(a.Abort().IsInvalidArgument());

  // Write-write conflict across sessions: the second writer loses at
  // update time (indirection latch), the first commits fine.
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(b.Begin().ok());
  ASSERT_TRUE(a.Update("t", 1, 1ull << 1, {1, 11}).ok());
  EXPECT_FALSE(b.Update("t", 1, 1ull << 1, {1, 12}).ok());
  ASSERT_TRUE(b.Abort().ok());
  ASSERT_TRUE(a.Commit().ok());
  ASSERT_TRUE(b.Read("t", 1, ~0ull, &row).ok());
  EXPECT_EQ(row[1], 11u);
}

TEST(ServerTest, DisconnectAutoAbortsOpenTransaction) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  {
    Client a;
    ASSERT_TRUE(Connect(ts, &a).ok());
    ASSERT_TRUE(a.CreateTable("t", {"k", "v"}).ok());
    ASSERT_TRUE(a.Begin().ok());
    ASSERT_TRUE(a.Insert("t", {7, 70}).ok());
    // Vanish mid-transaction.
  }
  ASSERT_TRUE(WaitUntil([&] { return ts.stats().sessions_active == 0; }))
      << "session not finalized after disconnect";

  Client b;
  ASSERT_TRUE(Connect(ts, &b).ok());
  uint64_t count = ~0ull;
  ASSERT_TRUE(b.Count("t", {}, &count).ok());
  EXPECT_EQ(count, 0u) << "disconnected session's txn was not aborted";
  std::vector<Value> row;
  EXPECT_TRUE(b.Read("t", 7, ~0ull, &row).IsNotFound());
}

// --- admission control -----------------------------------------------------

TEST(ServerTest, BusyWhenJobQueueFull) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  cfg.test_delay_us = 20000;  // each request holds the worker 20ms
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  constexpr int kClients = 8;
  std::atomic<int> ok{0}, busy{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client c;
      if (!Connect(ts, &c).ok()) {
        ++other;
        return;
      }
      Status s = c.Ping();
      if (s.ok()) {
        ++ok;
      } else if (s.IsBusy()) {
        ++busy;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : threads) t.join();

  // 1 executing + 2 queued can be accepted; the rest must be turned
  // away *immediately* (a Busy client never waits behind the queue).
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + busy.load(), kClients);
  EXPECT_GE(busy.load(), 1) << "overload did not produce Busy";
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ts.stats().rejected_busy, static_cast<uint64_t>(busy.load()));

  // Once the burst drains, the server accepts again.
  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  EXPECT_TRUE(WaitUntil([&] { return c.Ping().ok(); }));
}

TEST(ServerTest, BusyWhenSessionPipelineFull) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 64;  // global bound out of the way
  cfg.max_inflight_per_session = 2;
  cfg.test_delay_us = 20000;
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  int fd = RawConnect(ts.port());
  ASSERT_GE(fd, 0);
  constexpr uint32_t kPipelined = 8;
  std::string burst;
  for (uint32_t id = 1; id <= kPipelined; ++id) {
    burst += Frame(PingPayload(id));
  }
  SendRaw(fd, burst);

  // All 8 get responses — Busy rejections immediately (possibly out
  // of order, hence the ids), accepted pongs as the worker drains.
  std::vector<bool> seen(kPipelined + 1, false);
  int ok = 0, busy = 0;
  for (uint32_t i = 0; i < kPipelined; ++i) {
    uint32_t id = 0;
    uint8_t code = 0;
    ASSERT_TRUE(ReadResponse(fd, &id, &code)) << "response " << i;
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, kPipelined);
    EXPECT_FALSE(seen[id]) << "duplicate response id " << id;
    seen[id] = true;
    if (code == 0) {
      ++ok;
    } else {
      EXPECT_EQ(code, static_cast<uint8_t>(Status::Code::kBusy));
      ++busy;
    }
  }
  ::close(fd);
  EXPECT_GE(busy, 1) << "pipeline overrun did not produce Busy";
  EXPECT_GE(ok, 2) << "accepted pipeline depth not honored";
}

// --- wire-codec robustness against a hostile/broken peer -------------------

TEST(WireFuzzTest, TornOversizedAndBitFlippedFramesNeverCrash) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  const std::string good = Frame(PingPayload(1));
  std::mt19937 rng(0xeda7);  // deterministic: CI failures must replay

  // Torn frames: every cut point of a valid frame, then hang up.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    SendRaw(fd, good.substr(0, cut));
    ::close(fd);
  }

  // Bit flips anywhere in the frame: the server answers with an error
  // or just hangs up — never crashes, never leaks the session.
  for (int trial = 0; trial < 64; ++trial) {
    std::string bad = good;
    size_t byte = rng() % bad.size();
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << (rng() % 8)));
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    SendRaw(fd, bad);
    ::shutdown(fd, SHUT_WR);  // EOF ends any wait for more payload
    uint32_t id = 0;
    uint8_t code = 0;
    while (ReadResponse(fd, &id, &code)) {
      // Whatever arrives must be a well-formed response frame; a
      // flipped ping may still decode as some valid request.
    }
    ::close(fd);
  }

  // Oversized length header: rejected before allocation.
  {
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    std::string huge;
    wire::PutU32(&huge, wire::kDefaultMaxFrameBytes + 1);
    SendRaw(fd, huge);
    uint32_t id = 0;
    uint8_t code = 0;
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(code, static_cast<uint8_t>(Status::Code::kInvalidArgument));
    EXPECT_FALSE(ReadResponse(fd, &id, &code));  // then it hangs up
    ::close(fd);
  }

  // Random garbage streams.
  for (int trial = 0; trial < 16; ++trial) {
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    std::string garbage(1 + rng() % 64, '\0');
    for (char& ch : garbage) ch = static_cast<char>(rng());
    SendRaw(fd, garbage);
    ::shutdown(fd, SHUT_WR);
    uint32_t id = 0;
    uint8_t code = 0;
    while (ReadResponse(fd, &id, &code)) {
    }
    ::close(fd);
  }

  // A short request header inside a well-formed frame keeps the
  // session alive (the stream is still in sync).
  {
    int fd = RawConnect(ts.port());
    ASSERT_GE(fd, 0);
    std::string tiny;
    wire::PutU32(&tiny, 5);  // id but no opcode
    SendRaw(fd, Frame(tiny));
    uint32_t id = 0;
    uint8_t code = 0;
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(code, static_cast<uint8_t>(Status::Code::kInvalidArgument));
    SendRaw(fd, Frame(PingPayload(6)));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 6u);
    EXPECT_EQ(code, 0);
    ::close(fd);
  }

  // Every fuzz session must drain, and a fresh client still works.
  EXPECT_TRUE(WaitUntil([&] { return ts.stats().sessions_active == 0; }))
      << "fuzz connections leaked sessions";
  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  EXPECT_TRUE(c.Ping().ok());
  EXPECT_GT(ts.stats().errors, 0u);
}

// --- concurrency: the TSan target ------------------------------------------

TEST(ServerTest, ThirtyTwoConcurrentSessionsMixedTraffic) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  {
    Client admin;
    ASSERT_TRUE(Connect(ts, &admin).ok());
    ASSERT_TRUE(admin.CreateTable("t", {"k", "v"}).ok());
  }

  constexpr uint64_t kSessions = 32;
  constexpr uint64_t kRows = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (uint64_t tid = 0; tid < kSessions; ++tid) {
    threads.emplace_back([&, tid] {
      Client c;
      if (!Connect(ts, &c).ok()) {
        ++failures;
        return;
      }
      const uint64_t base = tid * 1000;
      auto check = [&](const Status& s) {
        if (!s.ok()) ++failures;
        return s.ok();
      };

      // Committed batch: this session's persistent rows.
      std::vector<std::vector<Value>> rows;
      std::vector<Value> keys;
      for (uint64_t i = 0; i < kRows; ++i) {
        rows.push_back({base + i, 1});
        keys.push_back(base + i);
      }
      if (!check(c.Begin())) return;
      if (!check(c.InsertBatch("t", rows))) return;
      if (!check(c.Commit())) return;

      // Aborted txn: must leave no trace.
      if (!check(c.Begin())) return;
      if (!check(c.Insert("t", {base + 500, 9}))) return;
      if (!check(c.Abort())) return;

      // One-shot updates on our own keys (no cross-session conflicts).
      std::vector<Value> half(keys.begin(), keys.begin() + kRows / 2);
      std::vector<std::vector<Value>> updates;
      for (Value k : half) updates.push_back({k, 2});
      if (!check(c.UpdateBatch("t", half, 1ull << 1, updates))) return;

      // Read back and verify this session's slice.
      std::vector<std::vector<Value>> got;
      if (!check(c.MultiRead("t", keys, ~0ull, &got))) return;
      if (got.size() != keys.size()) {
        ++failures;
        return;
      }
      for (uint64_t i = 0; i < kRows; ++i) {
        Value want = i < kRows / 2 ? 2 : 1;
        if (got[i].size() != 2 || got[i][1] != want) {
          ++failures;
          return;
        }
      }
      uint64_t n = 0;
      if (!check(c.Count("t", {}, &n))) return;
      if (n < kRows) ++failures;  // at least our own committed rows
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  uint64_t count = 0, sum = 0;
  ASSERT_TRUE(c.Count("t", {}, &count).ok());
  EXPECT_EQ(count, kSessions * kRows);
  ASSERT_TRUE(c.Sum("t", 1, {}, &sum).ok());
  EXPECT_EQ(sum, kSessions * (kRows / 2 * 2 + kRows / 2 * 1));
  EXPECT_EQ(ts.stats().errors, 0u);
  EXPECT_GE(ts.stats().accepted, kSessions * 6);
}

// --- shutdown --------------------------------------------------------------

TEST(ServerTest, CleanShutdownWithRequestsInFlight) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.test_delay_us = 3000;
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  constexpr int kClients = 8;
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client c;
      if (!Connect(ts, &c).ok()) return;
      // Hammer until the server goes away under us.
      while (go.load(std::memory_order_relaxed)) {
        Status s = c.Ping();
        if (!s.ok() && !s.IsBusy()) break;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ts.server->Stop();  // requests are mid-queue and mid-execution now
  go.store(false, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  EXPECT_FALSE(ts.server->running());
  EXPECT_EQ(ts.stats().sessions_active, 0u);
  EXPECT_EQ(ts.stats().queue_depth, 0u);
  ts.server->Stop();  // idempotent
}

TEST(ServerTest, StopAbortsOpenTransactions) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  Client a;
  ASSERT_TRUE(Connect(ts, &a).ok());
  ASSERT_TRUE(a.CreateTable("t", {"k", "v"}).ok());
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Insert("t", {1, 10}).ok());

  ts.server->Stop();

  // The engine outlives the server; the orphaned txn must be gone.
  uint64_t count = ~0ull;
  ASSERT_TRUE(ts.db.GetTable("t")->NewQuery().Count(&count).ok());
  EXPECT_EQ(count, 0u);

  // And the engine is still fully usable after the front-end is gone.
  Txn txn = ts.db.Begin();
  ASSERT_TRUE(ts.db.GetTable("t")->Insert(txn, {2, 20}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(ts.db.GetTable("t")->NewQuery().Count(&count).ok());
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace lstore
