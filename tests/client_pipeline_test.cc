// Pipelined-client tests (src/server/client_channel.h + the
// Submit/Await surface of src/server/client.h): several requests in
// flight on one connection with out-of-order, id-matched completion;
// the client-side in-flight cap; server admission-control Busy
// arriving mid-pipeline (a genuinely out-of-order response — the
// reader thread writes it while earlier requests are still
// executing); and channel breakage when the server goes away with
// requests outstanding. Runs in CI's TSan job alongside server_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "server/client.h"
#include "server/client_channel.h"
#include "server/server.h"
#include "server/wire.h"

namespace lstore {
namespace {

/// In-memory Database + Server on an ephemeral loopback port.
struct TestServer {
  Database db;
  std::unique_ptr<Server> server;

  Status Start(ServerConfig cfg = {}) {
    server = std::make_unique<Server>(&db, cfg);
    return server->Start();
  }
  uint16_t port() const { return server->port(); }
};

Status Connect(const TestServer& ts, Client* c) {
  return c->Connect("127.0.0.1", ts.port());
}

/// Blocking-load a tiny table: key + 2 data columns, rows 0..n-1
/// with row[c] = key + c.
void LoadTable(const TestServer& ts, uint64_t n) {
  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  ASSERT_TRUE(c.CreateTable("t", {"k", "a", "b"}).ok());
  std::vector<std::vector<Value>> rows;
  for (uint64_t k = 0; k < n; ++k) rows.push_back({k, k + 1, k + 2});
  ASSERT_TRUE(c.InsertBatch("t", rows).ok());
}

// --- out-of-order completion ----------------------------------------------

TEST(ClientPipeline, SustainsInFlightAndMatchesOutOfOrderAwaits) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  LoadTable(ts, 16);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());

  // Four reads in flight at once on the one connection.
  RequestId ids[4];
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(c.SubmitRead("t", k, ~0ull, &ids[k]).ok());
  }
  EXPECT_EQ(c.channel().in_flight(), 4u);
  EXPECT_GE(c.channel().in_flight(), 2u);  // the acceptance bar

  // Await in REVERSE submit order: the channel must read responses
  // (which the server delivers in request order), park the ones for
  // other ids, and hand each Await exactly its own id's row.
  for (int k = 3; k >= 0; --k) {
    std::vector<Value> row;
    ASSERT_TRUE(c.AwaitRead(ids[k], &row).ok()) << "k=" << k;
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[0], static_cast<Value>(k));
    EXPECT_EQ(row[1], static_cast<Value>(k + 1));
    EXPECT_EQ(row[2], static_cast<Value>(k + 2));
  }
  EXPECT_EQ(c.channel().in_flight(), 0u);

  // An id is consumed by its Await: a second Await on it is an error,
  // not a hang or a stale result.
  EXPECT_TRUE(c.Await(ids[0]).IsInvalidArgument());
}

TEST(ClientPipeline, OldestInFlightTracksSubmitOrder) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  LoadTable(ts, 4);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  RequestId a, b;
  ASSERT_TRUE(c.SubmitRead("t", 0, ~0ull, &a).ok());
  ASSERT_TRUE(c.SubmitRead("t", 1, ~0ull, &b).ok());

  RequestId oldest = 0;
  ASSERT_TRUE(c.channel().OldestInFlight(&oldest));
  EXPECT_EQ(oldest, a);
  ASSERT_TRUE(c.AwaitRead(a, nullptr).ok());
  ASSERT_TRUE(c.channel().OldestInFlight(&oldest));
  EXPECT_EQ(oldest, b);
  ASSERT_TRUE(c.AwaitRead(b, nullptr).ok());
  EXPECT_FALSE(c.channel().OldestInFlight(&oldest));
}

// --- the in-flight cap -----------------------------------------------------

TEST(ClientPipeline, ClientSideCapReturnsBusy) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  LoadTable(ts, 8);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  c.channel().set_max_in_flight(2);

  RequestId a, b, d;
  ASSERT_TRUE(c.SubmitRead("t", 0, ~0ull, &a).ok());
  ASSERT_TRUE(c.SubmitRead("t", 1, ~0ull, &b).ok());
  EXPECT_TRUE(c.SubmitRead("t", 2, ~0ull, &d).IsBusy());

  // Claiming one response frees a slot.
  ASSERT_TRUE(c.AwaitRead(a, nullptr).ok());
  EXPECT_TRUE(c.SubmitRead("t", 2, ~0ull, &d).ok());
  EXPECT_TRUE(c.AwaitRead(b, nullptr).ok());
  EXPECT_TRUE(c.AwaitRead(d, nullptr).ok());
}

// --- server Busy mid-pipeline ---------------------------------------------

TEST(ClientPipeline, ServerBusyArrivesOutOfOrderMidPipeline) {
  // Session admission budget of 2 with every request stalled 20ms:
  // the reader thread answers Busy for the pipeline's tail while its
  // head is still executing, so the Busy responses genuinely overtake
  // earlier requests' responses on the wire.
  ServerConfig cfg;
  cfg.max_inflight_per_session = 2;
  cfg.test_delay_us = 20000;
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  c.channel().set_max_in_flight(6);

  RequestId ids[6];
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        c.channel().Submit(wire::Op::kPing, wire::Empty{}, &ids[i]).ok());
  }
  // Await in SUBMIT order. The first awaits force the channel to read
  // (and park) the Busy responses the reader already wrote for the
  // tail — out-of-order arrival, in-order claims.
  int ok = 0, busy = 0;
  for (int i = 0; i < 6; ++i) {
    Status s = c.channel().Await(ids[i], nullptr);
    if (s.ok()) ++ok;
    else if (s.IsBusy()) ++busy;
    else FAIL() << "unexpected status: " << s.ToString();
  }
  EXPECT_GE(ok, 2) << "admitted head of the pipeline";
  EXPECT_GE(busy, 1) << "admission control rejected the tail";
  EXPECT_EQ(ok + busy, 6);

  // A Busy mid-pipeline is an op outcome, not a channel failure: the
  // connection keeps working.
  EXPECT_TRUE(c.Ping().ok());
  EXPECT_EQ(c.channel().in_flight(), 0u);
}

// --- disconnect with requests outstanding ---------------------------------

TEST(ClientPipeline, ServerStopBreaksChannelOncePerOutstandingId) {
  ServerConfig cfg;
  cfg.test_delay_us = 100000;  // park the pipeline server-side
  TestServer ts;
  ASSERT_TRUE(ts.Start(cfg).ok());

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  RequestId ids[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        c.channel().Submit(wire::Op::kPing, wire::Empty{}, &ids[i]).ok());
  }
  ts.server->Stop();

  // Every outstanding id resolves — to its response if the server got
  // it out before stopping, otherwise to the breaking status. Nothing
  // hangs, nothing is reported twice.
  for (int i = 0; i < 3; ++i) {
    Status s = c.channel().Await(ids[i], nullptr);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError() || s.IsCorruption()) << s.ToString();
    }
  }
  EXPECT_EQ(c.channel().in_flight(), 0u);
  // The channel is dead: new traffic fails, consumed ids are unknown.
  EXPECT_FALSE(c.Ping().ok());
  EXPECT_TRUE(c.channel().Await(ids[0], nullptr).IsInvalidArgument());
}

// --- blocking facade over the pipelined core -------------------------------

TEST(ClientPipeline, BlockingCallComposesWithOutstandingPipeline) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  LoadTable(ts, 4);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());
  RequestId rid;
  ASSERT_TRUE(c.SubmitRead("t", 2, ~0ull, &rid).ok());
  // A blocking call while the read is outstanding awaits its own id
  // and parks the read's response for later.
  EXPECT_TRUE(c.Ping().ok());
  std::vector<Value> row;
  ASSERT_TRUE(c.AwaitRead(rid, &row).ok());
  EXPECT_EQ(row[0], 2u);
}

TEST(ClientPipeline, TypedSubmitAwaitRoundTrip) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  LoadTable(ts, 8);

  Client c;
  ASSERT_TRUE(Connect(ts, &c).ok());

  // Pipelined insert + update + delete, acked via the generic Await.
  RequestId ins, upd, del;
  ASSERT_TRUE(c.SubmitInsert("t", {100, 101, 102}, &ins).ok());
  ASSERT_TRUE(c.SubmitUpdate("t", 0, 0b010, {0, 77, 0}, &upd).ok());
  ASSERT_TRUE(c.SubmitDelete("t", 7, &del).ok());
  EXPECT_TRUE(c.Await(ins).ok());
  EXPECT_TRUE(c.Await(upd).ok());
  EXPECT_TRUE(c.Await(del).ok());

  // Pipelined multiread sees all three effects at once.
  RequestId mr;
  std::vector<std::vector<Value>> rows;
  std::vector<Status> statuses;
  ASSERT_TRUE(c.SubmitMultiRead("t", {100, 0, 7}, ~0ull, &mr).ok());
  // The frame is OK; per-key outcomes arrive in `statuses` (key 7 was
  // deleted above, so its row is empty and its status NotFound).
  ASSERT_TRUE(c.AwaitMultiRead(mr, 3, &rows, &statuses).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], 101u);
  EXPECT_EQ(rows[1][1], 77u);
  EXPECT_TRUE(rows[2].empty());
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[2].IsNotFound());

  // Pipelined aggregate: SUM(a) via the wire query path.
  RequestId q;
  Client::QuerySpec spec;
  ASSERT_TRUE(c.SubmitQuery("t", wire::QueryKind::kCount, 0, spec, &q).ok());
  uint64_t count = 0;
  ASSERT_TRUE(c.AwaitAggregate(q, &count).ok());
  EXPECT_EQ(count, 8u);  // 8 loaded - 1 deleted + 1 inserted
}

}  // namespace
}  // namespace lstore
