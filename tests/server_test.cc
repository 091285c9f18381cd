// Network service layer tests (src/server/): wire-codec robustness
// (torn / oversized / bit-flipped frames, mirroring archive_test's
// torn-segment style), the full request surface over a real TCP
// loopback socket, per-session transaction isolation, auto-abort on
// disconnect, admission-control Busy under a tiny queue bound, sessions
// sharing a one-thread pool round-robin, the server's registry series,
// 32 concurrent sessions of mixed traffic (the TSan target), and clean
// shutdown with requests in flight.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/checksum.h"
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

/// Frame a payload exactly as wire::SealFrame does.
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

/// Read one response frame; returns false on EOF/error. Adds the
/// frame's bytes to *bytes when given.
bool ReadResponse(int fd, uint32_t* id, uint8_t* code,
                  uint64_t* bytes = nullptr) {
  std::string payload;
  if (!wire::ReadFrame(fd, wire::kDefaultMaxFrameBytes, &payload).ok()) {
    return false;
  }
  if (bytes != nullptr) *bytes += payload.size() + wire::kFrameOverhead;
  wire::Reader in(payload);
  std::string msg;
  return in.U32(id) && in.U8(code) && in.String(&msg);
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

// --- per-op wire layouts --------------------------------------------------
//
// Every op's request body and every response shape, encoded by the
// codec, must equal the bytes pinned here, and those bytes must decode
// back to the same fields. The pinned bytes are what the hand-written
// per-op encoders that preceded the generic codec wrote for the same
// values, so any change to an op's layout fails here.

using namespace std::string_view_literals;

/// Field-by-field equality over wire layouts (they declare no ==).
template <typename T>
bool SameFields(const T& a, const T& b) {
  if constexpr (wire::kIsVector<T>) {
    return std::equal(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const auto& x, const auto& y) { return SameFields(x, y); });
  } else if constexpr (wire::kIsVariant<T>) {
    if (a.index() != b.index()) return false;
    return std::visit(
        [&](const auto& x) {
          return SameFields(x, std::get<std::decay_t<decltype(x)>>(b));
        },
        a);
  } else if constexpr (std::is_scalar_v<T> || std::is_same_v<T, std::string>) {
    return a == b;
  } else {
    return wire::ApplyFields(a, [&](const auto&... fa) {
      return wire::ApplyFields(
          b, [&](const auto&... fb) { return (SameFields(fa, fb) && ...); });
    });
  }
}

/// `value` encodes to exactly `bytes`, and `bytes` decode to `value`.
template <typename T>
void ExpectPinned(const T& value, std::string_view bytes) {
  std::string encoded;
  wire::Encode(&encoded, value);
  EXPECT_EQ(encoded, bytes);
  T decoded{};
  if constexpr (wire::kIsVariant<T>) {  // decode the shape `value` holds
    decoded = std::visit(
        [](const auto& alt) { return T(std::decay_t<decltype(alt)>{}); },
        value);
  }
  ASSERT_TRUE(wire::Decode(bytes, &decoded));
  EXPECT_TRUE(SameFields(decoded, value));
}

template <wire::Op op>
void ExpectRequest(const wire::RequestOf<op>& req, std::string_view bytes) {
  SCOPED_TRACE(std::string(wire::OpName(op)) + " request");
  ExpectPinned(req, bytes);
}

template <wire::Op op>
void ExpectResponse(const wire::ResponseOf<op>& resp, std::string_view bytes) {
  SCOPED_TRACE(std::string(wire::OpName(op)) + " response");
  ExpectPinned(resp, bytes);
}

TEST(WireLayout, EveryRequestBodyMatchesItsPinnedBytes) {
  using wire::Op;
  ExpectRequest<Op::kPing>({}, ""sv);
  ExpectRequest<Op::kCreateTable>(
      {"t", {"k", "v"}},
      "\x01\x00\x00\x00\x74\x02\x00\x00\x00\x01\x00\x00\x00\x6b\x01"
      "\x00\x00\x00\x76"sv);
  ExpectRequest<Op::kListTables>({}, ""sv);
  ExpectRequest<Op::kSchema>("t", "\x01\x00\x00\x00\x74"sv);
  ExpectRequest<Op::kBegin>(IsolationLevel::kSnapshot, "\x01"sv);
  ExpectRequest<Op::kCommit>({}, ""sv);
  ExpectRequest<Op::kAbort>({}, ""sv);
  ExpectRequest<Op::kInsert>(
      {"t", {1, 2}},
      "\x01\x00\x00\x00\x74\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00"
      "\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kRead>(
      {"t", 7, 3},
      "\x01\x00\x00\x00\x74\x07\x00\x00\x00\x00\x00\x00\x00\x03\x00"
      "\x00\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kUpdate>(
      {"t", 7, 2, {7, 9}},
      "\x01\x00\x00\x00\x74\x07\x00\x00\x00\x00\x00\x00\x00\x02\x00"
      "\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x07\x00\x00\x00\x00"
      "\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kDelete>(
      {"t", 7}, "\x01\x00\x00\x00\x74\x07\x00\x00\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kMultiRead>(
      {"t", 3, {1, 2}},
      "\x01\x00\x00\x00\x74\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00"
      "\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00"
      "\x00\x00\x00"sv);
  ExpectRequest<Op::kInsertBatch>(
      {"t", {{1, 2}, {3, 4}}},
      "\x01\x00\x00\x00\x74\x02\x00\x00\x00\x02\x00\x00\x00\x01\x00"
      "\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02"
      "\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00"
      "\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kUpdateBatch>(
      {"t", 2, {1}, {{1, 5}}},
      "\x01\x00\x00\x00\x74\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00"
      "\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02"
      "\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00"
      "\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kDeleteBatch>(
      {"t", {1, 2}},
      "\x01\x00\x00\x00\x74\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00"
      "\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kQuery>(
      {"t", wire::QueryKind::kSum, 1, {2, 10, 5, {{0, 4}}}},
      "\x01\x00\x00\x00\x74\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00"
      "\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00"
      "\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00"
      "\x00\x00\x00\x00\x00"sv);
  ExpectRequest<Op::kMetrics>({}, ""sv);
  ExpectRequest<Op::kTrace>({}, ""sv);
  ExpectRequest<Op::kHealth>({}, ""sv);
}

TEST(WireLayout, EveryResponseShapeMatchesItsPinnedBytes) {
  using wire::Op;
  // Ack-only ops answer with an empty body.
  ExpectResponse<Op::kPing>({}, ""sv);
  ExpectResponse<Op::kCreateTable>({}, ""sv);
  ExpectResponse<Op::kBegin>({}, ""sv);
  ExpectResponse<Op::kCommit>({}, ""sv);
  ExpectResponse<Op::kAbort>({}, ""sv);
  ExpectResponse<Op::kInsert>({}, ""sv);
  ExpectResponse<Op::kUpdate>({}, ""sv);
  ExpectResponse<Op::kDelete>({}, ""sv);
  ExpectResponse<Op::kInsertBatch>({}, ""sv);
  ExpectResponse<Op::kUpdateBatch>({}, ""sv);
  ExpectResponse<Op::kDeleteBatch>({}, ""sv);

  constexpr std::string_view kNames =
      "\x02\x00\x00\x00\x01\x00\x00\x00\x61\x01\x00\x00\x00\x62"sv;
  ExpectResponse<Op::kListTables>({"a", "b"}, kNames);
  ExpectResponse<Op::kSchema>({"a", "b"}, kNames);
  ExpectResponse<Op::kRead>(
      {5, kNull},
      "\x02\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff"
      "\xff\xff\xff\xff\xff"sv);
  ExpectResponse<Op::kMultiRead>(
      {{{1, 2}, {}}, {Status::Code::kOk, Status::Code::kNotFound}},
      "\x02\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
      "\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00"
      "\x00\x00\x00\x01"sv);
  // A query answers an aggregate, or keys for QueryKind::kKeys.
  ExpectResponse<Op::kQuery>(
      wire::Aggregate{42, 3},
      "\x2a\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00"
      "\x00"sv);
  ExpectResponse<Op::kQuery>(
      wire::Row{100, 101},
      "\x02\x00\x00\x00\x64\x00\x00\x00\x00\x00\x00\x00\x65\x00\x00"
      "\x00\x00\x00\x00\x00"sv);
  constexpr std::string_view kText = "\x04\x00\x00\x00\x6d\x20\x31\x0a"sv;
  ExpectResponse<Op::kMetrics>("m 1\n", kText);
  ExpectResponse<Op::kTrace>("m 1\n", kText);

  HealthReport report;
  ActorHealth actor;
  actor.name = "a";
  actor.verdict = HealthVerdict::kSlow;
  actor.busy = true;
  actor.since_beat_ms = 1;
  actor.beats = 2;
  actor.slow_ms = 3;
  actor.stall_ms = 4;
  report.actors.push_back(actor);
  Event event;
  event.ts_ms = 9;
  event.severity = EventSeverity::kWarn;
  event.actor = "x";
  event.kind = "y";
  event.fields = "\"z\":1";
  report.recent_events.push_back(event);
  ExpectResponse<Op::kHealth>(
      report,
      "\x01\x00\x00\x00\x01\x00\x00\x00\x61\x01\x01\x01\x00\x00\x00"
      "\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00"
      "\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00"
      "\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\x00"
      "\x78\x01\x00\x00\x00\x79\x05\x00\x00\x00\x22\x7a\x22\x3a\x31"sv);
}

/// The payload of a frame built as [len][payload][crc].
std::string PayloadOf(std::string_view frame) {
  return std::string(frame.substr(4, frame.size() - wire::kFrameOverhead));
}

TEST(WireLayout, HeadersAndFramesMatchPinnedBytes) {
  // A traced read, request id 1, trace id 0xabc.
  constexpr std::string_view kTracedRead =
      "\x22\x00\x00\x00\x01\x00\x00\x00\x89\xbc\x0a\x00\x00\x00\x00"
      "\x00\x00\x01\x00\x00\x00\x74\x07\x00\x00\x00\x00\x00\x00\x00"
      "\x03\x00\x00\x00\x00\x00\x00\x00\x9a\x53\x02\xa9"sv;
  EXPECT_EQ(wire::RequestFrame({1, wire::Op::kRead, 0xabc},
                               wire::ReadRequest{"t", 7, 3}),
            kTracedRead);
  std::string payload = PayloadOf(kTracedRead);
  wire::RequestHeader req;
  ASSERT_TRUE(wire::ParseRequestHeader(&payload, &req));
  EXPECT_EQ(req.id, 1u);
  EXPECT_EQ(req.op, wire::Op::kRead);
  EXPECT_EQ(req.trace_id, 0xabcu);
  wire::ReadRequest read;
  ASSERT_TRUE(wire::Decode(payload, &read));
  EXPECT_TRUE(SameFields(read, wire::ReadRequest{"t", 7, 3}));

  // An untraced ping, request id 2: no trace field.
  constexpr std::string_view kPing =
      "\x05\x00\x00\x00\x02\x00\x00\x00\x01\x6e\x2a\x3b\xc7"sv;
  EXPECT_EQ(wire::RequestFrame({2, wire::Op::kPing, 0}, wire::Empty{}), kPing);
  payload = PayloadOf(kPing);
  ASSERT_TRUE(wire::ParseRequestHeader(&payload, &req));
  EXPECT_EQ(req.id, 2u);
  EXPECT_EQ(req.op, wire::Op::kPing);
  EXPECT_EQ(req.trace_id, 0u);
  EXPECT_TRUE(payload.empty());

  // An OK read reply carries its body...
  constexpr std::string_view kOkRead =
      "\x15\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00"
      "\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x06\x36\x00\x9a"sv;
  EXPECT_EQ(wire::ResponseFrame(1, Status::OK(), wire::Row{5}), kOkRead);
  payload = PayloadOf(kOkRead);
  wire::ResponseHeader resp;
  ASSERT_TRUE(wire::ParseResponseHeader(&payload, &resp));
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.code, Status::Code::kOk);
  EXPECT_EQ(resp.message, "");
  wire::Row row;
  ASSERT_TRUE(wire::Decode(payload, &row));
  EXPECT_EQ(row, wire::Row{5});

  // ...and an error reply carries its message and no body, even when
  // one was produced.
  constexpr std::string_view kNotFound =
      "\x0b\x00\x00\x00\x02\x00\x00\x00\x01\x02\x00\x00\x00\x6e\x6f"
      "\x4a\xbb\xc3\x79"sv;
  EXPECT_EQ(wire::ResponseFrame(2, Status::NotFound("no"), wire::Row{5}),
            kNotFound);
  payload = PayloadOf(kNotFound);
  ASSERT_TRUE(wire::ParseResponseHeader(&payload, &resp));
  EXPECT_EQ(resp.id, 2u);
  EXPECT_EQ(resp.code, Status::Code::kNotFound);
  EXPECT_EQ(resp.message, "no");
  EXPECT_TRUE(payload.empty());
}

// A body with bytes left over, a truncated one, or an enum past its
// last value is malformed.
TEST(WireLayout, DecodeRejectsTrailingTruncatedAndOutOfRange) {
  wire::ReadRequest read;
  const std::string_view body =
      "\x01\x00\x00\x00\x74\x07\x00\x00\x00\x00\x00\x00\x00\x03\x00"
      "\x00\x00\x00\x00\x00\x00"sv;
  EXPECT_TRUE(wire::Decode(body, &read));
  EXPECT_FALSE(wire::Decode(std::string(body) + "x", &read));
  EXPECT_FALSE(wire::Decode(body.substr(0, body.size() - 1), &read));
  IsolationLevel iso;
  EXPECT_TRUE(wire::Decode("\x02"sv, &iso));
  EXPECT_FALSE(wire::Decode("\x03"sv, &iso));
  // A count no remaining byte could cover fails before any growth.
  wire::Strings names;
  EXPECT_FALSE(wire::Decode("\xff\xff\xff\xff"sv, &names));
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

// --- scheduling ------------------------------------------------------------

// Sessions round-robin the pool: a client that pipelines a burst into a
// one-thread pool cannot starve another client's request behind it.
TEST(ServerTest, PipelinedSessionDoesNotStarveAnother) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.test_delay_us = 5000;
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  int a = RawConnect(ts.port());
  int b = RawConnect(ts.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  constexpr uint32_t kBurst = 16;
  std::string burst;
  for (uint32_t id = 1; id <= kBurst; ++id) burst += Frame(PingPayload(id));
  SendRaw(a, burst);
  // The whole burst is queued before B asks.
  ASSERT_TRUE(WaitUntil([&] { return ts.stats().accepted == kBurst; }));

  using Clock = std::chrono::steady_clock;
  Clock::time_point a_last;
  std::thread a_reader([&] {
    for (uint32_t i = 0; i < kBurst; ++i) {
      uint32_t id = 0;
      uint8_t code = 0;
      ASSERT_TRUE(ReadResponse(a, &id, &code)) << "response " << i;
      EXPECT_EQ(id, i + 1);
      EXPECT_EQ(code, 0);
    }
    a_last = Clock::now();
  });
  SendRaw(b, Frame(PingPayload(100)));
  uint32_t id = 0;
  uint8_t code = 0;
  ASSERT_TRUE(ReadResponse(b, &id, &code));
  const Clock::time_point b_done = Clock::now();
  EXPECT_EQ(id, 100u);
  EXPECT_EQ(code, 0);
  a_reader.join();
  EXPECT_LT(b_done, a_last) << "B waited behind A's whole burst";
  ::close(a);
  ::close(b);
}

// The server's registry series count what crossed the socket, and the
// queue-depth gauge returns to 0 once requests drain or Stop drops them.
TEST(ServerTest, RegistrySeriesCountTrafficAndDrainToZero) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.test_delay_us = 20000;
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());
  auto counter = [&](const char* name) {
    return ts.db.Metrics().CounterValue(name);
  };
  auto depth = [&] {
    return ts.db.Metrics().GaugeValue("lstore_server_queue_depth");
  };

  int fd = RawConnect(ts.port());
  ASSERT_GE(fd, 0);
  const std::string ping = Frame(PingPayload(1));
  const std::string short_header = Frame("x");  // a sound frame, bad header
  uint64_t bytes_out = 0;
  uint32_t id = 0;
  uint8_t code = 0;
  SendRaw(fd, ping);
  ASSERT_TRUE(ReadResponse(fd, &id, &code, &bytes_out));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(depth(), 0);
  SendRaw(fd, short_header);
  ASSERT_TRUE(ReadResponse(fd, &id, &code, &bytes_out));
  EXPECT_EQ(code, static_cast<uint8_t>(Status::Code::kInvalidArgument));

  EXPECT_EQ(counter("lstore_server_connections_total"), 1u);
  EXPECT_EQ(counter("lstore_server_errors_total"), 1u);
  EXPECT_EQ(counter("lstore_server_bytes_in_total"),
            ping.size() + short_header.size());
  // A response's bytes are counted once its send returns, which may be
  // after the client has read it.
  EXPECT_TRUE(WaitUntil(
      [&] { return counter("lstore_server_bytes_out_total") == bytes_out; }))
      << counter("lstore_server_bytes_out_total") << " vs " << bytes_out;

  // Four pipelined: one runs, three wait; Stop drops those three.
  std::string burst;
  for (uint32_t i = 2; i <= 5; ++i) burst += Frame(PingPayload(i));
  SendRaw(fd, burst);
  ASSERT_TRUE(WaitUntil([&] { return depth() == 3; }));
  ts.server->Stop();
  EXPECT_EQ(depth(), 0);
  EXPECT_EQ(ts.stats().sessions_active, 0u);
  ::close(fd);
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
