// The production workload driver: a YCSB-style closed-loop harness
// over the engine's Txn/batch/Query surface, runnable in two modes —
// in-process against a Database, or over the wire through the
// src/server/ service using the pipelined client.
//
// Shape of a run (RunWorkload):
//
//   preload `rows` rows  ->  for each thread count in the sweep:
//     spawn N core-pinned workers (closed loop, per-op latency into a
//     LatencyReservoir per op class)  ->  warmup_ms (measured: no)
//     ->  duration_ms (measured: yes)  ->  join, merge reservoirs
//     ->  print p50/p99/p999 + ops/s per class, emit BENCH_ci.json
//     rows, check the --slo bounds
//
// Key choice per op comes from a scrambled-zipfian (or uniform)
// KeyGenerator over the preloaded keyspace; inserts draw fresh keys
// from one process-wide counter so threads never collide. Reads or
// deletes that land on a deleted key count as `misses`, write-write
// conflicts under skew count as `aborts` — neither is an error; both
// are reported so a skewed run's contention is visible.
//
// Wire mode keeps --pipeline requests in flight per connection
// through Client's Submit/Await API: when the pipeline is full the
// worker awaits the OLDEST outstanding id (completion order is id-
// matched, so this is just the fairest choice, not a requirement).
// Latency is submit -> response for that id — i.e. it includes
// queueing behind the pipeline, which is exactly what a server-side
// SLO must bound. Server Busy rejections count as `busy` and the op
// retries. With --port 0 the driver self-hosts a Server over its own
// Database; with an explicit --port it drives a remote server and
// preloads over the wire (InsertBatch chunks, Busy-retried).
//
// With --trace, every --trace-sample-th measured op (default 64)
// carries a fresh trace id into the flight recorder — stamped on the
// wire frame in wire modes, set thread-locally in-process — and each
// sweep point reports a p99_by_stage breakdown: the per-stage self
// times of the traces nearest the end-to-end p99, which sum to the
// reported e2e by construction. --trace-out FILE additionally dumps
// the recorder as Chrome trace-event JSON (fetched over the wire in
// remote mode, where the per-stage breakdown is skipped).
//
// Exit code: 0, or 1 when any --slo bound is violated at any sweep
// point (the gate CI's perf-smoke job runs).

#ifndef LSTORE_BENCH_WORKLOAD_DRIVER_H_
#define LSTORE_BENCH_WORKLOAD_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/status.h"
#include "core/database.h"
#include "core/query.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "server/client.h"
#include "server/server.h"

namespace lstore {
namespace bench {

// --- op classes ------------------------------------------------------------

enum OpClass : uint32_t {
  kOpRead = 0,
  kOpInsert,
  kOpUpdate,
  kOpDelete,
  kOpScan,
  kOpMultiRead,
  kNumOpClasses,
};

inline const char* OpName(uint32_t c) {
  static const char* kNames[kNumOpClasses] = {"read",   "insert",    "update",
                                              "delete", "scan",      "multiread"};
  return kNames[c];
}

/// Draw op classes with OpMix percentages and keys from the shared
/// scrambled-zipfian/uniform generator. One OpGen per worker thread,
/// seeded distinctly but deterministically from --seed.
class OpGen {
 public:
  OpGen(const BenchArgs& args, uint32_t worker, std::atomic<uint64_t>* next_key)
      : rng_(args.seed * 1000003ull + worker),
        keys_(args.rows, args.theta, args.seed + worker * 7919ull),
        next_key_(next_key) {
    uint32_t pct[kNumOpClasses] = {args.mix.read,  args.mix.insert,
                                   args.mix.update, args.mix.del,
                                   args.mix.scan,   args.mix.multiread};
    uint32_t acc = 0;
    for (uint32_t c = 0; c < kNumOpClasses; ++c) {
      acc += pct[c];
      cum_[c] = acc;
    }
  }

  uint32_t NextClass() {
    uint32_t r = static_cast<uint32_t>(rng_.Uniform(100));
    for (uint32_t c = 0; c < kNumOpClasses; ++c) {
      if (r < cum_[c]) return c;
    }
    return kOpRead;
  }

  /// A key in the preloaded keyspace (skew-distributed).
  uint64_t NextKey() { return keys_.Next(); }

  /// A fresh never-used key (inserts; global across threads).
  uint64_t NextInsertKey() {
    return next_key_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Random rng_;
  KeyGenerator keys_;
  std::atomic<uint64_t>* next_key_;
  uint32_t cum_[kNumOpClasses] = {};
};

// --- per-worker accounting -------------------------------------------------

struct WorkerStats {
  LatencyReservoir lat[kNumOpClasses];
  uint64_t ops[kNumOpClasses] = {};  ///< completed ops (measure phase)
  uint64_t misses = 0;  ///< NotFound on read/update/delete (deleted key)
  uint64_t aborts = 0;  ///< write-write conflicts (Status::Aborted)
  uint64_t busy = 0;    ///< server Busy rejections (wire mode), retried
  uint64_t errors = 0;  ///< anything else (reported; run continues)

  void Merge(const WorkerStats& o) {
    for (uint32_t c = 0; c < kNumOpClasses; ++c) {
      lat[c].Merge(o.lat[c]);
      ops[c] += o.ops[c];
    }
    misses += o.misses;
    aborts += o.aborts;
    busy += o.busy;
    errors += o.errors;
  }

  void Account(uint32_t cls, const Status& s, uint64_t start_ns, bool measure) {
    // A NotFound is a completed operation whose key happened to be
    // deleted — an *outcome* with a latency, not a failure — so it
    // counts toward throughput and the reservoir as well as `misses`.
    if (s.ok() || s.IsNotFound()) {
      if (s.IsNotFound()) ++misses;
      if (measure) {
        ++ops[cls];
        lat[cls].Record(NowNanos() - start_ns);
      }
    } else if (s.IsAborted()) {
      ++aborts;
    } else if (s.IsBusy()) {
      ++busy;
    } else {
      ++errors;
    }
  }
};

/// Warmup -> measure -> stop, flipped by the controlling thread.
enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// One sweep point's merged result.
struct WorkloadResult {
  WorkerStats stats;
  double measure_secs = 0;
  uint32_t threads = 0;
  /// Trace ids minted for this point fall in [trace_lo, trace_hi)
  /// (--trace only; both 0 otherwise) — the filter that attributes
  /// flight-recorder spans to this sweep point.
  uint64_t trace_lo = 0;
  uint64_t trace_hi = 0;

  /// The flat stat map the SLO bounds are checked against (and the
  /// vocabulary documented in the README): p50/p99/p999_<op>_us and
  /// <op>_ops_s per op class that ran, plus total_ops_s.
  std::map<std::string, double> StatMap() const {
    std::map<std::string, double> m;
    uint64_t total = 0;
    for (uint32_t c = 0; c < kNumOpClasses; ++c) {
      total += stats.ops[c];
      if (stats.lat[c].count() == 0) continue;
      std::string op = OpName(c);
      m["p50_" + op + "_us"] = stats.lat[c].PercentileUs(0.50);
      m["p99_" + op + "_us"] = stats.lat[c].PercentileUs(0.99);
      m["p999_" + op + "_us"] = stats.lat[c].PercentileUs(0.999);
      m[op + "_ops_s"] =
          measure_secs > 0 ? stats.ops[c] / measure_secs : 0;
    }
    m["total_ops_s"] = measure_secs > 0 ? total / measure_secs : 0;
    return m;
  }
};

// --- in-process worker -----------------------------------------------------

/// Closed loop directly against the Database: one Txn per operation
/// (the server executes exactly the same way for sessionless ops), so
/// in-process and wire mode measure the same engine work and differ
/// only by the service layer.
inline void InProcWorker(const BenchArgs& args, Database* db, Table* table,
                         uint32_t worker, std::atomic<uint64_t>* next_key,
                         const std::atomic<int>* phase, WorkerStats* out) {
  if (args.pin) PinToCore(worker);
  OpGen gen(args, worker, next_key);
  const ColumnMask all = table->schema().AllColumns();
  const uint32_t cols = table->schema().num_columns();
  std::vector<Value> row(cols);
  std::vector<Value> keys;
  std::vector<std::vector<Value>> rows;
  uint64_t op_seq = 0;

  while (true) {
    int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    bool measure = ph == kMeasure;
    uint32_t cls = gen.NextClass();
    // --trace: every trace_sample-th measured op runs under a fresh
    // trace id, so engine stages (gc_queue_wait, log_flush, log_append,
    // commit_fsync) record spans against it; the worker itself records
    // the root "request" span since there is no server to do it.
    uint64_t trace_id = 0;
    if (args.trace && measure && (op_seq++ % args.trace_sample) == 0) {
      trace_id = TraceContext::NewTraceId();
    }
    TraceContext::Scope trace_scope(trace_id);
    uint64_t t0 = NowNanos();
    Status s;
    switch (cls) {
      case kOpRead: {
        Txn txn = db->Begin();
        s = table->Read(txn, gen.NextKey(), all, &row);
        if (s.ok()) s = txn.Commit();
        break;
      }
      case kOpInsert: {
        row.assign(cols, 0);
        row[0] = gen.NextInsertKey();
        for (uint32_t c = 1; c < cols; ++c) row[c] = row[0] + c;
        Txn txn = db->Begin();
        s = table->Insert(txn, row);
        if (s.ok()) s = txn.Commit();
        break;
      }
      case kOpUpdate: {
        uint64_t key = gen.NextKey();
        row.assign(cols, 0);
        row[1] = t0;
        Txn txn = db->Begin();
        s = table->Update(txn, key, 1ull << 1, row);
        if (s.ok()) s = txn.Commit();
        break;
      }
      case kOpDelete: {
        Txn txn = db->Begin();
        s = table->Delete(txn, gen.NextKey());
        if (s.ok()) s = txn.Commit();
        break;
      }
      case kOpScan: {
        uint64_t sum = 0;
        s = table->NewQuery()
                .Range(gen.NextKey(), args.scan_rows)
                .Workers(1)
                .Sum(1, &sum);
        break;
      }
      case kOpMultiRead: {
        keys.clear();
        for (uint32_t i = 0; i < args.batch; ++i) keys.push_back(gen.NextKey());
        Txn txn = db->Begin();
        s = table->MultiRead(txn, keys, all, &rows);
        if (s.ok() || s.IsNotFound()) {
          Status c = txn.Commit();
          if (s.ok()) s = c;
        }
        break;
      }
      default:
        break;
    }
    if (trace_id != 0) {
      Stage::Record(nullptr, "request", trace_id, t0, NowNanos() - t0);
    }
    out->Account(cls, s, t0, measure);
  }
}

// --- wire worker -----------------------------------------------------------

/// Closed loop over one pipelined connection: keep --pipeline
/// requests in flight, awaiting the oldest id when full. Latency is
/// submit -> completion of that op's own id.
inline void WireWorker(const BenchArgs& args, const std::string& host,
                       uint16_t port, uint32_t worker,
                       std::atomic<uint64_t>* next_key,
                       const std::atomic<int>* phase, WorkerStats* out) {
  if (args.pin) PinToCore(worker);
  OpGen gen(args, worker, next_key);
  Client client;
  Status cs = client.Connect(host, port);
  if (!cs.ok()) {
    std::fprintf(stderr, "worker %u connect: %s\n", worker,
                 cs.ToString().c_str());
    ++out->errors;
    return;
  }
  client.channel().set_max_in_flight(args.pipeline);
  const ColumnMask all = ~0ull;
  const uint32_t cols = args.columns;
  std::vector<Value> row;
  std::vector<Value> mkeys;
  std::vector<std::vector<Value>> rows;

  struct Pending {
    uint32_t cls;
    uint64_t start_ns;
    bool measure;
  };
  std::map<RequestId, Pending> pending;
  uint64_t op_seq = 0;

  // Await `id`, decode per its op class, and account it.
  auto await_one = [&](RequestId id) {
    auto it = pending.find(id);
    Pending p = it->second;
    pending.erase(it);
    Status s;
    switch (p.cls) {
      case kOpRead:
        s = client.AwaitRead(id, &row);
        break;
      case kOpMultiRead:
        s = client.AwaitMultiRead(id, args.batch, &rows);
        break;
      case kOpScan: {
        uint64_t sum = 0;
        s = client.AwaitAggregate(id, &sum);
        break;
      }
      default:
        s = client.Await(id);
        break;
    }
    out->Account(p.cls, s, p.start_ns, p.measure);
    return s;
  };

  auto drain = [&]() {
    RequestId id;
    while (client.channel().OldestInFlight(&id)) {
      if (!await_one(id).ok() && !client.connected()) break;
    }
  };

  while (true) {
    int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    if (!client.connected()) {
      // The channel broke (server stopped / connection cut): count
      // what was lost and end this worker's loop.
      drain();
      ++out->errors;
      break;
    }
    if (client.channel().in_flight() >= args.pipeline) {
      RequestId oldest;
      if (client.channel().OldestInFlight(&oldest)) await_one(oldest);
      continue;
    }
    bool measure = ph == kMeasure;
    uint32_t cls = gen.NextClass();
    // --trace: stamp every trace_sample-th measured op with a fresh
    // trace id; the server records the stage spans (decode .. reply)
    // under it. One-shot — only the next Submit carries the id.
    if (args.trace && measure && (op_seq++ % args.trace_sample) == 0) {
      uint64_t trace_id = TraceContext::NewTraceId();
      if (trace_id != 0) client.set_next_trace_id(trace_id);
    }
    uint64_t t0 = NowNanos();
    RequestId id = 0;
    Status s;
    switch (cls) {
      case kOpRead:
        s = client.SubmitRead(args.table, gen.NextKey(), all, &id);
        break;
      case kOpInsert: {
        row.assign(cols, 0);
        row[0] = gen.NextInsertKey();
        for (uint32_t c = 1; c < cols; ++c) row[c] = row[0] + c;
        s = client.SubmitInsert(args.table, row, &id);
        break;
      }
      case kOpUpdate: {
        row.assign(cols, 0);
        row[1] = t0;
        s = client.SubmitUpdate(args.table, gen.NextKey(), 1ull << 1, row, &id);
        break;
      }
      case kOpDelete:
        s = client.SubmitDelete(args.table, gen.NextKey(), &id);
        break;
      case kOpScan: {
        Client::QuerySpec spec;
        spec.first_row = gen.NextKey();
        spec.row_count = args.scan_rows;
        s = client.SubmitQuery(args.table, wire::QueryKind::kSum, 1, spec, &id);
        break;
      }
      case kOpMultiRead: {
        mkeys.clear();
        for (uint32_t i = 0; i < args.batch; ++i) {
          mkeys.push_back(gen.NextKey());
        }
        s = client.SubmitMultiRead(args.table, mkeys, all, &id);
        break;
      }
      default:
        break;
    }
    if (s.ok()) {
      pending[id] = Pending{cls, t0, measure};
    } else if (s.IsBusy()) {
      // Client pipeline full despite the depth check (cannot happen)
      // or a raced cap change: await and retry.
      ++out->busy;
      RequestId oldest;
      if (client.channel().OldestInFlight(&oldest)) await_one(oldest);
    } else {
      ++out->errors;
    }
  }
  drain();
  client.Close();
}

// --- load phase ------------------------------------------------------------

inline void LoadInProc(const BenchArgs& args, Database* db, Table** table) {
  Schema schema(args.columns);
  TableConfig cfg;
  Must(db->CreateTable(args.table, schema, cfg), "create table");
  *table = db->GetTable(args.table);
  const uint32_t kChunk = 1024;
  std::vector<std::vector<Value>> rows;
  for (uint64_t k = 0; k < args.rows;) {
    rows.clear();
    for (uint32_t i = 0; i < kChunk && k < args.rows; ++i, ++k) {
      std::vector<Value> row(args.columns);
      row[0] = k;
      for (uint32_t c = 1; c < args.columns; ++c) row[c] = k + c;
      rows.push_back(std::move(row));
    }
    Txn txn = db->Begin();
    Must((*table)->InsertBatch(txn, rows), "preload insert");
    Must(txn.Commit(), "preload commit");
  }
}

/// Preload over the wire (remote server): create the table when it
/// does not exist yet, then InsertBatch chunks, retrying Busy
/// rejections (the server's admission control is part of the system
/// under test, not a load failure).
inline void LoadWire(const BenchArgs& args, Client* client) {
  std::vector<std::string> cols;
  for (uint32_t c = 0; c < args.columns; ++c) {
    cols.push_back("c" + std::to_string(c));
  }
  Status s = client->CreateTable(args.table, cols);
  if (!s.ok() && !s.IsAlreadyExists()) Must(s, "create table");
  if (s.IsAlreadyExists()) return;  // reuse the existing load
  const uint32_t kChunk = 512;
  std::vector<std::vector<Value>> rows;
  for (uint64_t k = 0; k < args.rows;) {
    rows.clear();
    for (uint32_t i = 0; i < kChunk && k < args.rows; ++i, ++k) {
      std::vector<Value> row(args.columns);
      row[0] = k;
      for (uint32_t c = 1; c < args.columns; ++c) row[c] = k + c;
      rows.push_back(std::move(row));
    }
    while (true) {
      s = client->InsertBatch(args.table, rows);
      if (!s.IsBusy()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Must(s, "preload insert");
  }
}

// --- the sweep -------------------------------------------------------------

/// Run one sweep point: spawn `n` workers of `body`, run the
/// warmup/measure phases, join, and merge. Under --trace the ids this
/// point's workers mint are bracketed into [trace_lo, trace_hi) so
/// the stage breakdown can attribute flight-recorder spans per point.
template <typename WorkerFn>
inline WorkloadResult RunPoint(const BenchArgs& args, uint32_t n,
                               WorkerFn&& body) {
  uint64_t trace_lo = args.trace ? TraceContext::NewTraceId() : 0;
  std::atomic<int> phase{kWarmup};
  std::vector<WorkerStats> stats(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    workers.emplace_back([&, w]() { body(w, &phase, &stats[w]); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(args.warmup_ms));
  auto t0 = BenchClock::now();
  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(args.duration_ms));
  phase.store(kStop, std::memory_order_release);
  auto t1 = BenchClock::now();
  for (auto& t : workers) t.join();

  WorkloadResult r;
  r.threads = n;
  r.measure_secs = Secs(t0, t1);
  for (const auto& s : stats) r.stats.Merge(s);
  if (args.trace) {
    r.trace_lo = trace_lo;
    r.trace_hi = TraceContext::NewTraceId();
  }
  return r;
}

inline void PrintResult(const BenchArgs& args, const WorkloadResult& r) {
  std::printf("threads=%u  mode=%s  measured=%.2fs\n", r.threads,
              args.mode.c_str(), r.measure_secs);
  std::printf("  %-10s %12s %10s %10s %10s\n", "op", "ops/s", "p50(us)",
              "p99(us)", "p999(us)");
  uint64_t total = 0;
  for (uint32_t c = 0; c < kNumOpClasses; ++c) {
    total += r.stats.ops[c];
    if (r.stats.lat[c].count() == 0) continue;
    std::printf("  %-10s %12.0f %10.1f %10.1f %10.1f\n", OpName(c),
                r.stats.ops[c] / r.measure_secs,
                r.stats.lat[c].PercentileUs(0.50),
                r.stats.lat[c].PercentileUs(0.99),
                r.stats.lat[c].PercentileUs(0.999));
  }
  std::printf("  %-10s %12.0f   (misses=%" PRIu64 " aborts=%" PRIu64
              " busy=%" PRIu64 " errors=%" PRIu64 ")\n",
              "total", total / r.measure_secs, r.stats.misses, r.stats.aborts,
              r.stats.busy, r.stats.errors);
}

/// Emit the sweep point's driver-side stats as BENCH_ci.json rows
/// ("workload" bench, one metric per stat, tagged with mode+threads).
inline void EmitResult(const BenchArgs& args, const WorkloadResult& r) {
  for (const auto& [stat, value] : r.StatMap()) {
    std::string metric =
        args.mode + ".t" + std::to_string(r.threads) + "." + stat;
    bool rate = stat.size() > 6 &&
                stat.compare(stat.size() - 6, 6, "_ops_s") == 0;
    EmitMetric("workload", metric, value, rate ? "ops/s" : "us");
  }
}

// --- p99 stage breakdown (--trace) -----------------------------------------

/// Per-stage self-time decomposition of the traces nearest the e2e
/// p99: where does a slow request actually spend its time?
struct StageBreakdown {
  std::map<std::string, double> stage_us;  ///< mean self time per stage
  double e2e_us = 0;   ///< mean root duration over the p99 window
  size_t traces = 0;   ///< complete traces (root span present) seen
};

/// Decompose the flight-recorder spans minted by one sweep point
/// ([lo, hi) ids) into a per-stage breakdown around the e2e p99.
///
/// Per trace: each span's *self* time is its duration minus its direct
/// children's (a span's parent is the smallest span containing it);
/// the root "request" span's own self time is reported as "other"
/// (network, wakeups — anything no stage instruments). Self times sum
/// to the root duration by construction, so the emitted stages sum to
/// the reported e2e. The breakdown averages the traces at ranks
/// p99±2 (by root duration) rather than one trace, so a single
/// outlier does not define the profile.
inline StageBreakdown ComputeStageBreakdown(const std::vector<TraceSpan>& spans,
                                            uint64_t lo, uint64_t hi) {
  StageBreakdown b;
  if (lo >= hi) return b;

  // Group this point's spans by trace id.
  std::map<uint64_t, std::vector<TraceSpan>> traces;
  for (const TraceSpan& s : spans) {
    if (s.trace_id >= lo && s.trace_id < hi) traces[s.trace_id].push_back(s);
  }

  // Per trace: root duration + per-stage self times.
  struct TraceProfile {
    uint64_t root_dur = 0;
    std::map<std::string, double> self_us;
  };
  std::vector<TraceProfile> profiles;
  for (auto& [id, tspans] : traces) {
    int root = -1;
    for (size_t i = 0; i < tspans.size(); ++i) {
      if (std::strcmp(tspans[i].name, "request") == 0) {
        root = static_cast<int>(i);
        break;
      }
    }
    if (root < 0) continue;  // incomplete (ring overwrote the root)

    const size_t n = tspans.size();
    std::vector<double> self(n);
    for (size_t i = 0; i < n; ++i) {
      self[i] = static_cast<double>(tspans[i].dur_ns);
    }
    // Charge each non-root span to its nearest enclosing parent
    // (smallest span containing it); spans outside the root entirely
    // are clock skew artifacts and are dropped.
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == root) continue;
      int parent = -1;
      uint64_t parent_dur = ~0ull;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (tspans[j].t0_ns <= tspans[i].t0_ns &&
            tspans[i].end_ns() <= tspans[j].end_ns() &&
            tspans[j].dur_ns < parent_dur) {
          parent = static_cast<int>(j);
          parent_dur = tspans[j].dur_ns;
        }
      }
      if (parent >= 0) self[parent] -= static_cast<double>(tspans[i].dur_ns);
    }

    TraceProfile p;
    p.root_dur = tspans[root].dur_ns;
    for (size_t i = 0; i < n; ++i) {
      const char* stage =
          static_cast<int>(i) == root ? "other" : tspans[i].name;
      p.self_us[stage] += std::max(0.0, self[i]) / 1000.0;
    }
    profiles.push_back(std::move(p));
  }
  b.traces = profiles.size();
  if (profiles.empty()) return b;

  // The p99 window: traces at ranks p99-2 .. p99+2 by root duration.
  std::sort(profiles.begin(), profiles.end(),
            [](const TraceProfile& a, const TraceProfile& c) {
              return a.root_dur < c.root_dur;
            });
  size_t rank = static_cast<size_t>(0.99 * (profiles.size() - 1));
  size_t w0 = rank >= 2 ? rank - 2 : 0;
  size_t w1 = std::min(profiles.size() - 1, rank + 2);
  double count = static_cast<double>(w1 - w0 + 1);
  for (size_t i = w0; i <= w1; ++i) {
    b.e2e_us += static_cast<double>(profiles[i].root_dur) / 1000.0 / count;
    for (const auto& [stage, us] : profiles[i].self_us) {
      b.stage_us[stage] += us / count;
    }
  }
  return b;
}

/// Print + emit one sweep point's p99 stage breakdown
/// (<mode>.t<N>.p99_by_stage.<stage> rows next to the driver stats).
inline void ReportStageBreakdown(const BenchArgs& args,
                                 const WorkloadResult& r) {
  StageBreakdown b = ComputeStageBreakdown(FlightRecorder::Instance().Snapshot(),
                                           r.trace_lo, r.trace_hi);
  if (b.traces == 0) {
    std::printf("  p99_by_stage: no complete traces captured%s\n",
                kTraceEnabled ? "" : " (built with LSTORE_TRACING=OFF)");
    return;
  }
  std::string prefix =
      args.mode + ".t" + std::to_string(r.threads) + ".p99_by_stage.";
  double sum = 0;
  std::printf("  p99_by_stage (%zu traces, e2e=%.1fus):\n", b.traces, b.e2e_us);
  for (const auto& [stage, us] : b.stage_us) {
    std::printf("    %-16s %10.1fus  %5.1f%%\n", stage.c_str(), us,
                b.e2e_us > 0 ? 100.0 * us / b.e2e_us : 0.0);
    EmitMetric("workload", prefix + stage, us, "us");
    sum += us;
  }
  EmitMetric("workload", prefix + "e2e", b.e2e_us, "us");
  std::printf("    %-16s %10.1fus  (e2e %.1fus)\n", "sum", sum, b.e2e_us);
}

/// Check the --slo bounds against one sweep point; prints violations
/// and returns their count.
inline uint32_t CheckSlo(const BenchArgs& args, const WorkloadResult& r) {
  if (args.slo.empty()) return 0;
  std::vector<std::string> violations;
  uint32_t bad = args.slo.Check(r.StatMap(), &violations);
  for (const auto& v : violations) {
    std::fprintf(stderr, "[threads=%u] %s\n", r.threads, v.c_str());
  }
  return bad;
}

/// Write the Chrome trace-event JSON for --trace-out (best effort: a
/// failed write is reported, never fatal to the run).
inline void WriteTraceOut(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "workload: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("workload: trace written to %s\n", path.c_str());
}

// --- entry point -----------------------------------------------------------

/// The whole workload binary: load, sweep, report, gate. Returns the
/// process exit code (1 = SLO violated).
inline int RunWorkload(const BenchArgs& args) {
  std::printf("workload: mode=%s rows=%" PRIu64 " mix={%s} theta=%.2f "
              "seed=%" PRIu64 " duration=%" PRIu64 "ms warmup=%" PRIu64
              "ms pipeline=%u\n",
              args.mode.c_str(), args.rows, args.mix.ToString().c_str(),
              args.theta, args.seed, args.duration_ms, args.warmup_ms,
              args.pipeline);

  std::atomic<uint64_t> next_key{args.rows};
  uint32_t violations = 0;

  if (args.mode == "inproc" || args.port == 0) {
    // Own the engine: open (or build in memory), preload in process.
    std::unique_ptr<Database> db;
    std::string dir;
    if (args.memory) {
      db = std::make_unique<Database>();
    } else {
      dir = ScratchDir("workload");
      DurabilityOptions opts;
      opts.sync_commit = args.sync;
      Must(Database::Open(dir, opts, &db), "open database");
    }
    Table* table = nullptr;
    LoadInProc(args, db.get(), &table);

    if (args.mode == "inproc") {
      for (uint32_t n : args.threads) {
        WorkloadResult r = RunPoint(
            args, n,
            [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
              InProcWorker(args, db.get(), table, w, &next_key, phase, out);
            });
        PrintResult(args, r);
        EmitResult(args, r);
        if (args.trace) ReportStageBreakdown(args, r);
        violations += CheckSlo(args, r);
      }
    } else {
      // Self-hosted wire mode: serve our own Database on an ephemeral
      // port and drive it like a remote one.
      ServerConfig scfg;
      scfg.port = 0;
      scfg.workers = args.server_workers;
      Server server(db.get(), scfg);
      Must(server.Start(), "start server");
      for (uint32_t n : args.threads) {
        WorkloadResult r = RunPoint(
            args, n,
            [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
              WireWorker(args, "127.0.0.1", server.port(), w, &next_key, phase,
                         out);
            });
        PrintResult(args, r);
        EmitResult(args, r);
        // Self-hosted: the server's flight recorder is in this
        // process, so the breakdown works exactly as in-proc.
        if (args.trace) ReportStageBreakdown(args, r);
        violations += CheckSlo(args, r);
      }
      server.Stop();
    }
    if (args.trace && !args.trace_out.empty()) {
      WriteTraceOut(args.trace_out, db->DumpTrace());
    }
    EmitSnapshot("workload", args.mode.c_str(), db->Metrics());
    db.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  } else {
    // Remote wire mode: the server is someone else's process; preload
    // through the protocol.
    {
      Client loader;
      Must(loader.Connect(args.host, args.port), "connect");
      LoadWire(args, &loader);
    }
    for (uint32_t n : args.threads) {
      WorkloadResult r = RunPoint(
          args, n,
          [&](uint32_t w, const std::atomic<int>* phase, WorkerStats* out) {
            WireWorker(args, args.host, args.port, w, &next_key, phase, out);
          });
      PrintResult(args, r);
      EmitResult(args, r);
      if (args.trace) {
        // The spans live in the remote server's flight recorder; no
        // local breakdown. Use --trace-out to fetch its dump instead.
        std::printf("  p99_by_stage: skipped (remote server holds the "
                    "spans; see --trace-out)\n");
      }
      violations += CheckSlo(args, r);
    }
    if (args.trace && !args.trace_out.empty()) {
      Client tracer;
      std::string json;
      if (tracer.Connect(args.host, args.port).ok() &&
          tracer.Trace(&json).ok()) {
        WriteTraceOut(args.trace_out, json);
      } else {
        std::fprintf(stderr, "workload: could not fetch remote trace\n");
      }
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "workload: %u SLO violation(s)\n", violations);
    return 1;
  }
  if (!args.slo.empty()) std::printf("workload: all SLO bounds met\n");
  return 0;
}

}  // namespace bench
}  // namespace lstore

#endif  // LSTORE_BENCH_WORKLOAD_DRIVER_H_
