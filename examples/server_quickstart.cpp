// Server quickstart: the engine as a network service — one process
// starts a Server over an in-memory Database, then talks to itself
// through real TCP clients: transactions over the wire, concurrent
// sessions, admission-control Busy under overload, and a metrics
// scrape.
//
// Build & run:  ./build/examples/server_quickstart

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "server/client.h"
#include "server/server.h"

using namespace lstore;

int main() {
  // --- 1. Start serving -------------------------------------------------
  // Port 0 picks an ephemeral port; a deployment would pin one. The
  // server's pool is the only thing touching the engine; every client
  // connection gets a session with its own transaction state and its
  // own queue of requests on that pool.
  Database db;
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(&db, cfg);
  Status s = server.Start();
  if (!s.ok()) {
    std::printf("start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // --- 2. A transactional session over the wire -------------------------
  Client c;
  if (!c.Connect("127.0.0.1", server.port()).ok()) return 1;
  c.CreateTable("accounts", {"id", "balance", "status"});
  c.Begin();
  std::vector<std::vector<Value>> rows;
  for (Value id = 0; id < 1000; ++id) rows.push_back({id, 1000, 1});
  c.InsertBatch("accounts", rows);
  c.Commit();

  // BEGIN..COMMIT brackets server-side state: until the commit, other
  // sessions cannot see these writes.
  c.Begin();
  c.Update("accounts", 42, /*mask=*/0b010, {42, 2500, 1});
  {
    Client other;
    other.Connect("127.0.0.1", server.port());
    std::vector<Value> row;
    other.Read("accounts", 42, ~0ull, &row);
    std::printf("before commit, another session reads balance %llu\n",
                static_cast<unsigned long long>(row[1]));
  }
  c.Commit();
  std::vector<Value> row;
  c.Read("accounts", 42, ~0ull, &row);
  std::printf("after commit, balance %llu\n",
              static_cast<unsigned long long>(row[1]));

  // --- 3. Concurrent sessions ------------------------------------------
  // One client per thread (a client is one session). Each updates its
  // own keys; aggregates see every committed write.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Client worker;
      if (!worker.Connect("127.0.0.1", server.port()).ok()) return;
      for (Value id = t * 100; id < static_cast<Value>(t * 100 + 100); ++id) {
        worker.Update("accounts", id, 0b010, {id, 1000 + id, 1});
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t sum = 0, visible = 0;
  c.Sum("accounts", 1, {}, &sum, &visible);
  std::printf("sum(balance) = %llu over %llu rows\n",
              static_cast<unsigned long long>(sum),
              static_cast<unsigned long long>(visible));

  // --- 4. Overload degrades into Busy, not queueing ---------------------
  // A tiny queue bound turns a burst into immediate Busy rejections;
  // a well-behaved client backs off and retries.
  ServerConfig tiny;
  tiny.workers = 1;
  tiny.max_queue_depth = 2;
  tiny.test_delay_us = 5000;
  Database small_db;
  Server small(&small_db, tiny);
  small.Start();
  std::atomic<uint64_t> busy{0}, served{0};
  std::vector<std::thread> burst;
  for (int t = 0; t < 8; ++t) {
    burst.emplace_back([&] {
      Client b;
      if (!b.Connect("127.0.0.1", small.port()).ok()) return;
      for (int i = 0; i < 5; ++i) {
        Status ps = b.Ping();
        if (ps.IsBusy()) {
          ++busy;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        } else if (ps.ok()) {
          ++served;
        }
      }
    });
  }
  for (auto& th : burst) th.join();
  std::printf("burst against queue depth 2: %llu served, %llu busy\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(busy.load()));
  small.Stop();

  // --- 5. Observability over the protocol -------------------------------
  // METRICS returns the full Prometheus exposition: engine and server
  // families side by side.
  std::string text;
  c.Metrics(&text);
  for (size_t pos = 0; pos < text.size();) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    if (line.find("lstore_server_") == 0 && line.find('#') == std::string::npos) {
      std::printf("%s\n", line.c_str());
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }

  server.Stop();
  std::printf("server stopped cleanly\n");
  return 0;
}
