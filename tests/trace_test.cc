// Request-scoped tracing tests (src/obs/span.h, flight_recorder.h,
// and the wire propagation through src/server/): a Stage feeds its
// histogram always and its span only when traced, from one clock
// pair, and End() closes it exactly once; ring wraparound is
// exact (retains the newest spans, counts the overwritten ones),
// concurrent writers against a snapshotting reader are torn-read-free
// (the TSan target), a trace id stamped on the client survives the
// pipelined path with out-of-order awaits and comes back attached to
// the right request's spans, the slow-op log emits the documented
// line schema, and — backward compatibility — frames without the
// trace field still parse while a truncated flagged header gets an
// error response without desyncing the stream.
//
// Every behavioral case branches on kTraceEnabled so the whole suite
// is meaningful (and green) under LSTORE_TRACING=OFF too: the OFF
// expectations (empty snapshots, zero ids, no slow-op log) are
// asserted instead of skipped.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "core/database.h"
#include "core/table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

// --- ring exactness --------------------------------------------------------

TEST(FlightRecorderTest, WraparoundRetainsNewestAndCountsDropped) {
  if (!kTraceEnabled) {
    FlightRecorder& rec = FlightRecorder::Instance();
    rec.Record(1, "a", 0, 1);
    EXPECT_TRUE(rec.Snapshot().empty());
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    return;
  }
  FlightRecorder rec(8);
  ASSERT_EQ(rec.ring_capacity(), 8u);

  for (uint64_t i = 1; i <= 8; ++i) rec.Record(i, "span", i * 100, 10);
  EXPECT_EQ(rec.recorded(), 8u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.Snapshot().size(), 8u);

  // Five more wrap the ring: exactly the newest 8 survive (6..13),
  // exactly 5 were overwritten.
  for (uint64_t i = 9; i <= 13; ++i) rec.Record(i, "span", i * 100, 10);
  EXPECT_EQ(rec.recorded(), 13u);
  EXPECT_EQ(rec.dropped(), 5u);
  std::vector<TraceSpan> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    // Snapshot sorts by t0, and t0 here encodes the record order.
    EXPECT_EQ(spans[i].trace_id, 6 + i);
    EXPECT_EQ(spans[i].t0_ns, (6 + i) * 100);
    EXPECT_STREQ(spans[i].name, "span");
  }
}

// A database's registry mirrors the process recorder's overwrites into
// lstore_trace_ring_dropped_total.
TEST(FlightRecorderTest, RegistryCountsOverwrittenSpans) {
  constexpr char kDropped[] = "lstore_trace_ring_dropped_total";
  Database db;
  const uint64_t before = db.Metrics().CounterValue(kDropped);
  FlightRecorder& rec = FlightRecorder::Instance();
  // One ring's worth and five more on this thread's ring: at least the
  // first five are overwritten unseen.
  for (uint64_t i = 0; i < rec.ring_capacity() + 5; ++i) {
    rec.Record(0xd209, "drop_probe", i, 1);
  }
  const uint64_t after = db.Metrics().CounterValue(kDropped);
  if (!kTraceEnabled) {
    EXPECT_EQ(after, 0u);
    return;
  }
  EXPECT_GE(after - before, 5u);
  EXPECT_LE(after, rec.dropped());
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  if (!kTraceEnabled) return;
  EXPECT_EQ(FlightRecorder(5).ring_capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1).ring_capacity(), 2u);
  EXPECT_EQ(FlightRecorder(16).ring_capacity(), 16u);
}

// --- concurrent writers vs snapshots (the TSan target) ---------------------

TEST(FlightRecorderTest, ConcurrentWritersNeverTearUnderSnapshots) {
  if (!kTraceEnabled) return;
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  constexpr size_t kCap = 64;
  FlightRecorder rec(kCap);

  // Each span's fields are derived from its trace id, so any torn
  // read (fields from two different writes) is detectable. The start
  // barrier makes the writers actually overlap — without it a fast
  // writer can finish (and release its ring for reuse) before the
  // next one starts, and nothing races.
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, &ready, t]() {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t id = (uint64_t{t + 1} << 32) | i;
        rec.Record(id, "w", id * 3, id * 7);
      }
    });
  }
  std::thread reader([&rec, &stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceSpan& s : rec.Snapshot()) {
        ASSERT_EQ(s.t0_ns, s.trace_id * 3);
        ASSERT_EQ(s.dur_ns, s.trace_id * 7);
        ASSERT_STREQ(s.name, "w");
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  // A thread that finishes early releases its ring for reuse, so the
  // ring count (and thus the exact drop split) is scheduling-
  // dependent; the conservation law is not: every recorded span was
  // either retained or counted dropped.
  std::vector<TraceSpan> final_spans = rec.Snapshot();
  EXPECT_EQ(rec.recorded() - rec.dropped(), final_spans.size());
  EXPECT_GE(final_spans.size(), kCap);  // at least one full ring
  for (const TraceSpan& s : final_spans) {
    // Whatever ring a span landed in, it is among its writer's newest
    // kCap (a ring holds one thread's spans at a time; reuse resets
    // nothing but the writer).
    EXPECT_GE(s.trace_id & 0xffffffffu, kPerThread - kCap);
  }
}

// --- trace scoping ---------------------------------------------------------

TEST(TraceContextTest, ScopePropagatesAndRestores) {
  uint64_t id = TraceContext::NewTraceId();
  if (!kTraceEnabled) {
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(TraceContext::Current(), 0u);
    return;
  }
  EXPECT_NE(id, 0u);
  EXPECT_EQ(TraceContext::Current(), 0u);
  {
    TraceContext::Scope outer(id);
    EXPECT_EQ(TraceContext::Current(), id);
    {
      TraceContext::Scope inner(0);  // deliberate clear
      EXPECT_EQ(TraceContext::Current(), 0u);
    }
    EXPECT_EQ(TraceContext::Current(), id);
  }
  EXPECT_EQ(TraceContext::Current(), 0u);
}

// --- Stage -----------------------------------------------------------------

TEST(StageTest, UntracedStageRecordsHistogramOnly) {
  FlightRecorder& rec = FlightRecorder::Instance();
  Histogram h;
  const uint64_t spans_before = rec.recorded();
  { Stage stage(&h, "stage_untraced"); }
  EXPECT_EQ(h.Snapshot().count, kTraceEnabled ? 1u : 0u);
  EXPECT_EQ(rec.recorded(), spans_before);  // no trace id, no span
}

TEST(StageTest, TracedStageRecordsOneSpanMatchingTheSample) {
  Histogram h;
  const uint64_t id = TraceContext::NewTraceId();
  const uint64_t before = NowNanos();
  {
    TraceContext::Scope scope(id);
    Stage stage(&h, "stage_traced");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const uint64_t after = NowNanos();
  std::vector<TraceSpan> spans = FlightRecorder::Instance().SnapshotTrace(id);
  HistogramSnapshot hs = h.Snapshot();
  if (!kTraceEnabled) {
    EXPECT_TRUE(spans.empty());
    EXPECT_EQ(hs.count, 0u);
    return;
  }
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "stage_traced");
  ASSERT_EQ(hs.count, 1u);
  // One clock pair feeds both sinks.
  EXPECT_EQ(spans[0].dur_ns, hs.sum);
  EXPECT_GE(spans[0].dur_ns, 50'000u);
  EXPECT_GE(spans[0].t0_ns, before);
  EXPECT_LE(spans[0].end_ns(), after);
}

TEST(StageTest, EndClosesTheWindowOnce) {
  Histogram h;
  const uint64_t id = TraceContext::NewTraceId();
  uint64_t first = 0, second = 0;
  {
    TraceContext::Scope scope(id);
    Stage stage(&h, "stage_end");
    first = stage.End();
    second = stage.End();
  }  // the destructor after End() adds nothing either
  std::vector<TraceSpan> spans = FlightRecorder::Instance().SnapshotTrace(id);
  HistogramSnapshot hs = h.Snapshot();
  EXPECT_EQ(second, 0u);
  if (!kTraceEnabled) {
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(hs.count, 0u);
    EXPECT_TRUE(spans.empty());
    return;
  }
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.sum, first);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].dur_ns, first);
}

TEST(StageTest, NullHistogramUntracedRecordsNothing) {
  FlightRecorder& rec = FlightRecorder::Instance();
  const uint64_t spans_before = rec.recorded();
  Stage stage(nullptr, "stage_idle");
  EXPECT_EQ(stage.End(), 0u);  // nothing timed: no clock was read
  EXPECT_EQ(rec.recorded(), spans_before);
}

TEST(StageTest, RecordFeedsEachSinkItsOwnWindow) {
  Histogram h;
  const uint64_t id = TraceContext::NewTraceId();
  FlightRecorder& rec = FlightRecorder::Instance();
  const uint64_t spans_before = rec.recorded();
  Stage::Record(&h, "stage_manual", 0, 100, 7);  // untraced: histogram only
  EXPECT_EQ(rec.recorded(), spans_before);
  Stage::Record(nullptr, "stage_manual", id, 100, 7);  // span only
  std::vector<TraceSpan> spans = rec.SnapshotTrace(id);
  HistogramSnapshot hs = h.Snapshot();
  if (!kTraceEnabled) {
    EXPECT_EQ(Stage::Now(), 0u);
    EXPECT_EQ(hs.count, 0u);
    EXPECT_TRUE(spans.empty());
    return;
  }
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.sum, 7u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].t0_ns, 100u);
  EXPECT_EQ(spans[0].dur_ns, 7u);
}

// --- wire round-trip with out-of-order awaits ------------------------------

TEST(TraceWireTest, StampedIdsSurvivePipelinedOutOfOrderAwaits) {
  Database db;
  Schema schema(3);
  ASSERT_TRUE(db.CreateTable("t", schema, {}).ok());
  Table* table = db.GetTable("t");
  {
    Txn txn = db.Begin();
    for (uint64_t k = 0; k < 16; ++k) {
      ASSERT_TRUE(table->Insert(txn, {k, k + 1, k + 2}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Server server(&db, {});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Four stamped reads in flight at once, awaited in reverse order.
  constexpr size_t kN = 4;
  uint64_t trace_ids[kN];
  RequestId req_ids[kN];
  for (size_t i = 0; i < kN; ++i) {
    trace_ids[i] = kTraceEnabled ? TraceContext::NewTraceId() : uint64_t{0};
    client.set_next_trace_id(trace_ids[i]);
    ASSERT_TRUE(client.SubmitRead("t", i, ~0ull, &req_ids[i]).ok());
  }
  for (size_t i = kN; i-- > 0;) {
    std::vector<Value> row;
    ASSERT_TRUE(client.AwaitRead(req_ids[i], &row).ok());
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[0], i);
  }

  FlightRecorder& rec = FlightRecorder::Instance();
  if (!kTraceEnabled) {
    EXPECT_TRUE(rec.Snapshot().empty());
  } else {
    for (size_t i = 0; i < kN; ++i) {
      // The root span lands AFTER the reply is sent (it covers the reply
      // stage), so a completed Await does not imply it is in the ring yet —
      // poll briefly before asserting.
      std::vector<TraceSpan> spans;
      size_t roots = 0;
      bool saw_execute = false, saw_queue_wait = false, saw_decode = false,
           saw_reply = false;
      for (int attempt = 0; attempt < 400; ++attempt) {
        spans = rec.SnapshotTrace(trace_ids[i]);
        // Every stamped request produced its full server-side timeline,
        // attributed to ITS id despite the out-of-order completion.
        roots = 0;
        saw_execute = saw_queue_wait = saw_decode = saw_reply = false;
        for (const TraceSpan& s : spans) {
          if (std::string(s.name) == "request") ++roots;
          if (std::string(s.name) == "execute") saw_execute = true;
          if (std::string(s.name) == "queue_wait") saw_queue_wait = true;
          if (std::string(s.name) == "decode") saw_decode = true;
          if (std::string(s.name) == "reply") saw_reply = true;
        }
        if (roots == 1 && saw_execute && saw_queue_wait && saw_decode &&
            saw_reply) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_EQ(roots, 1u) << "trace " << trace_ids[i];
      EXPECT_TRUE(saw_execute);
      EXPECT_TRUE(saw_queue_wait);
      EXPECT_TRUE(saw_decode);
      EXPECT_TRUE(saw_reply);
    }
    // An unstamped request records nothing: id 0 never hits a ring.
    for (const TraceSpan& s : rec.Snapshot()) EXPECT_NE(s.trace_id, 0u);
  }

  // The TRACE op returns the recorder as Chrome trace JSON in every
  // build (empty event list under OFF).
  std::string json;
  ASSERT_TRUE(client.Trace(&json).ok());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  if (kTraceEnabled) {
    EXPECT_NE(json.find("\"request\""), std::string::npos);
  } else {
    EXPECT_EQ(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
  }

  server.Stop();
  // The server's stage histograms (benchsuite derives its queue-wait
  // share from these two) saw every request, traced or not.
  MetricsSnapshot m = db.Metrics();
  for (const char* name :
       {"lstore_server_request_ns", "lstore_server_queue_wait_ns"}) {
    const auto* h = m.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    if (kTraceEnabled) {
      EXPECT_GE(h->hist.count, kN) << name;
    } else {
      EXPECT_EQ(h->hist.count, 0u) << name;
    }
  }
}

// --- slow-op log -----------------------------------------------------------

TEST(SlowOpLogTest, SlowTracedRequestDumpsDocumentedSchema) {
  std::string dir = std::string(::testing::TempDir()) + "lstore_trace_slow_" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  {
    DurabilityOptions opts;
    opts.slow_op_threshold_us = 1;  // everything traced is "slow"
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(dir, opts, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", Schema(2), {}).ok());

    Server server(db.get(), {});
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

    client.set_next_trace_id(TraceContext::NewTraceId());
    ASSERT_TRUE(client.Insert("t", {1, 2}).ok());
    // Untraced requests never dump, whatever their latency.
    ASSERT_TRUE(client.Insert("t", {2, 3}).ok());

    if (kTraceEnabled) {
      std::string prom;
      ASSERT_TRUE(client.Metrics(&prom).ok());
      EXPECT_NE(prom.find("lstore_server_slow_ops_total 1"),
                std::string::npos);
    }
    server.Stop();
  }

  std::ifstream log(dir + "/slowops.log");
  if (!kTraceEnabled) {
    EXPECT_FALSE(log.is_open());  // never created under OFF
  } else {
    ASSERT_TRUE(log.is_open());
    std::string line;
    size_t lines = 0;
    while (std::getline(log, line)) {
      ++lines;
      EXPECT_EQ(line.rfind("{\"ts_ms\":", 0), 0u) << line;
      EXPECT_NE(line.find("\"op\":\"insert\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"request_id\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"trace_id\":\"0x"), std::string::npos) << line;
      EXPECT_NE(line.find("\"total_us\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"spans\":[{\"name\":\""), std::string::npos)
          << line;
      EXPECT_EQ(line.substr(line.size() - 3), "}]}") << line;
      // The dump includes the root span of its own request.
      EXPECT_NE(line.find("\"name\":\"request\""), std::string::npos) << line;
    }
    EXPECT_EQ(lines, 1u);  // one traced request, one line
  }
  fs::remove_all(dir);
}

// --- wire backward compatibility -------------------------------------------

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
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
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

bool ReadResponse(int fd, uint32_t* id, uint8_t* code) {
  std::string payload;
  if (!wire::ReadFrame(fd, wire::kDefaultMaxFrameBytes, &payload).ok()) {
    return false;
  }
  wire::Reader in(payload);
  std::string msg;
  return in.U32(id) && in.U8(code) && in.String(&msg);
}

TEST(TraceWireTest, OldFramesParseAndTruncatedTraceHeaderDoesNotDesync) {
  Database db;
  Server server(&db, {});
  ASSERT_TRUE(server.Start().ok());
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);

  uint32_t id;
  uint8_t code;

  // 1. Pre-tracing frame shape — [id][op], no trace field — still OK.
  {
    std::string p;
    wire::PutU32(&p, 7);
    wire::PutU8(&p, static_cast<uint8_t>(wire::Op::kPing));
    SendRaw(fd, Frame(p));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 7u);
    EXPECT_EQ(code, 0);
  }

  // 2. Flagged op with a full 8-byte trace id — OK in every build
  //    (an OFF-build server skips the id without recording).
  {
    std::string p;
    wire::PutU32(&p, 8);
    wire::PutU8(&p,
                static_cast<uint8_t>(wire::Op::kPing) | wire::kTracedOpFlag);
    wire::PutU64(&p, 0xabcdef);
    SendRaw(fd, Frame(p));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 8u);
    EXPECT_EQ(code, 0);
  }

  // 3. Flagged op with a TRUNCATED trace id — an error response, not
  //    a hang or a desync.
  {
    std::string p;
    wire::PutU32(&p, 9);
    wire::PutU8(&p,
                static_cast<uint8_t>(wire::Op::kPing) | wire::kTracedOpFlag);
    wire::PutU32(&p, 0xdead);  // only 4 of the 8 id bytes
    SendRaw(fd, Frame(p));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 9u);
    EXPECT_NE(code, 0);
  }

  // 4. The stream is still in sync: a normal request succeeds.
  {
    std::string p;
    wire::PutU32(&p, 10);
    wire::PutU8(&p, static_cast<uint8_t>(wire::Op::kPing));
    SendRaw(fd, Frame(p));
    ASSERT_TRUE(ReadResponse(fd, &id, &code));
    EXPECT_EQ(id, 10u);
    EXPECT_EQ(code, 0);
  }

  ::close(fd);
  server.Stop();
}

}  // namespace
}  // namespace lstore
