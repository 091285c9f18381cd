// Flight recorder: per-thread lock-free span rings behind the
// request-scoped tracing layer (src/obs/span.h).
//
// Every traced stage records a closed span {trace_id, name, t0, dur}
// into the ring of the thread it ran on. The rings are fixed memory,
// always on, and overwrite oldest — like an aircraft flight recorder,
// the last N spans per thread are always available for inspection
// (Database::DumpTrace, the TRACE wire op, the slow-op log), with no
// consumer required in steady state.
//
// Concurrency design:
//
//  - One writer per ring. A thread acquires its ring on first record
//    (from a free list, else freshly allocated) and releases it back
//    at thread exit — so spans survive the thread that wrote them,
//    and memory is bounded by the maximum number of *concurrent*
//    recording threads, not by thread churn (the server's detached
//    per-connection readers would otherwise leak a ring each).
//  - Readers (snapshots) never block writers. Every span field is a
//    relaxed atomic and each slot carries a seqlock sequence (odd
//    while the writer is mid-publish), so a snapshot taken during a
//    wrap reads either the old span or the new one, never a torn mix
//    — and the whole scheme is clean under TSan.
//  - Span names MUST be static string literals: the ring stores the
//    pointer, and a snapshot may outlive any dynamic string.
//
// Compiled out: under LSTORE_TRACING=OFF (LSTORE_TRACE_ENABLED=0) the
// recorder is a stub with the same API — Record is a no-op, Snapshot
// is empty, RenderChromeTrace renders zero events — so call sites
// need no #if.

#ifndef LSTORE_OBS_FLIGHT_RECORDER_H_
#define LSTORE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

// The tracing gate: CMake option LSTORE_TRACING=OFF defines it to 0.
#ifndef LSTORE_TRACE_ENABLED
#define LSTORE_TRACE_ENABLED 1
#endif

namespace lstore {

/// True when tracing is compiled in (src/obs/span.h's Stage times
/// nothing and the recorder below is a stub when false).
inline constexpr bool kTraceEnabled = LSTORE_TRACE_ENABLED != 0;

/// Monotonic clock reading in nanoseconds: the one clock of every
/// timing site and span timestamp. Engine code reads it through
/// Stage::Now(), which compiles to 0 when tracing is off.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One closed span, as read out of the recorder. Timestamps are
/// NowNanos() (global monotonic), so spans recorded by different
/// threads on behalf of one trace still order and nest correctly.
struct TraceSpan {
  uint64_t trace_id = 0;
  const char* name = nullptr;  ///< static string literal
  uint64_t t0_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t tid = 0;  ///< recorder ring ordinal (stable per ring)

  uint64_t end_ns() const { return t0_ns + dur_ns; }
};

#if LSTORE_TRACE_ENABLED

class FlightRecorder {
 public:
  /// Spans retained per thread ring. Power of two; at ~40 payload
  /// bytes per slot the default is ~320 KB per recording thread.
  static constexpr size_t kDefaultRingCapacity = 8192;

  /// The process-wide recorder every Stage records its spans into.
  /// Never destroyed (intentional static leak): detached threads may
  /// release rings into it at any point of shutdown.
  static FlightRecorder& Instance();

  explicit FlightRecorder(size_t ring_capacity = kDefaultRingCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one closed span into the calling thread's ring (acquired
  /// on first use). Wait-free against concurrent snapshots.
  void Record(uint64_t trace_id, const char* name, uint64_t t0_ns,
              uint64_t dur_ns);

  /// Stable copy of every retained span, all rings, sorted by t0.
  std::vector<TraceSpan> Snapshot() const;

  /// The retained spans of one trace, sorted by t0 (slow-op dumps;
  /// scans every ring — fine for the rare-path consumers this serves).
  std::vector<TraceSpan> SnapshotTrace(uint64_t trace_id) const;

  /// Spans overwritten before any snapshot saw them, across all rings
  /// (monotonic; mirrored into lstore_trace_ring_dropped_total).
  uint64_t dropped() const;

  /// Spans ever recorded, across all rings (monotonic).
  uint64_t recorded() const;

  /// Render the current Snapshot() as Chrome trace-event JSON
  /// (chrome://tracing / Perfetto loadable): complete events ("ph":"X")
  /// with microsecond ts/dur, tid = ring ordinal, and the trace id in
  /// args. Events are sorted by ts.
  std::string RenderChromeTrace() const;

  size_t ring_capacity() const { return ring_capacity_; }

 private:
  struct Ring;
  friend struct ThreadRingHolder;

  Ring* AcquireRing();
  void ReleaseRing(Ring* ring);
  Ring* RingForThisThread();

  /// Process-unique recorder id; thread→ring bindings pair it with the
  /// recorder pointer to detect stale bindings across address reuse.
  uint64_t id_for_bindings() const { return id_; }

  const size_t ring_capacity_;  ///< rounded up to a power of two
  const uint64_t id_;

  /// Guards the ring registry and free list only — never the spans.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<Ring*> free_;
};

#else  // !LSTORE_TRACE_ENABLED

/// Tracing compiled out: same shape, no storage, no work.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 0;
  static FlightRecorder& Instance() {
    static FlightRecorder r;
    return r;
  }
  explicit FlightRecorder(size_t = 0) {}
  void Record(uint64_t, const char*, uint64_t, uint64_t) {}
  std::vector<TraceSpan> Snapshot() const { return {}; }
  std::vector<TraceSpan> SnapshotTrace(uint64_t) const { return {}; }
  uint64_t dropped() const { return 0; }
  uint64_t recorded() const { return 0; }
  std::string RenderChromeTrace() const {
    return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}";
  }
  size_t ring_capacity() const { return 0; }
};

#endif  // LSTORE_TRACE_ENABLED

/// Render `spans` as Chrome trace-event JSON (the free function behind
/// FlightRecorder::RenderChromeTrace; callers with a filtered span set
/// — e.g. one trace — can render it directly). Input need not be
/// sorted; output events are sorted by ts.
std::string RenderChromeTraceJson(std::vector<TraceSpan> spans);

}  // namespace lstore

#endif  // LSTORE_OBS_FLIGHT_RECORDER_H_
