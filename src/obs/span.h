// Request-scoped tracing and stage timing: trace ids, thread-local
// propagation, and Stage — the one primitive that times an engine
// stage into its latency histogram and, for a traced request, into a
// span in the flight recorder (src/obs/flight_recorder.h).
//
// A trace id is minted once at the request's origin (client stamping a
// wire frame, or the harness wrapping an in-process op), travels with
// the request across threads (wire header field → server Request →
// worker thread-local), and tags every span the request touches, the
// log syncs its worker runs included. Propagation inside a thread is a
// thread-local:
//
//   TraceContext::Scope scope(trace_id);   // set for this stage
//   ...                                     // anything called here
//   uint64_t id = TraceContext::Current();  // sees the id (0 = none)
//
// A Stage times one window, and one clock pair feeds both sinks. It
// reads the clock only when there is somewhere to record: a histogram,
// or a span name on a traced thread. Spans are recorded closed (after
// the fact), so a timed stage costs two clock reads and one ring write:
//
//   { Stage s(h_request_ns, nullptr);  Run(); }   // histogram only
//   { Stage s(nullptr, "execute");     Run(); }   // span, when traced
//   Stage s(h_capture_ns, nullptr); ...; s.End(); // close it early
//
// Windows a scope cannot hold — stamped on one thread and closed on
// another, shared by a batch, or recorded only on a success path —
// use the static pair:
//
//   uint64_t t0 = Stage::Now();
//   ...
//   Stage::Record(h_wait_ns, "queue_wait", trace_id, t0, Stage::Now() - t0);
//
// All of it compiles out under LSTORE_TRACING=OFF: Current() returns 0,
// Scope and Stage are empty, Now() returns 0 and Record does nothing,
// so call sites need no #if and no kTraceEnabled branch. Span names
// must be static string literals (the recorder stores the pointer).

#ifndef LSTORE_OBS_SPAN_H_
#define LSTORE_OBS_SPAN_H_

#include <atomic>
#include <cstdint>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace lstore {

#if LSTORE_TRACE_ENABLED

namespace internal {
inline thread_local uint64_t g_current_trace_id = 0;
}  // namespace internal

class TraceContext {
 public:
  /// The trace id active on this thread; 0 = untraced.
  static uint64_t Current() { return internal::g_current_trace_id; }

  /// Mint a fresh process-unique nonzero trace id.
  static uint64_t NewTraceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  /// RAII: set the thread's trace id for a stage, restore on exit
  /// (nesting-safe; Scope(0) deliberately clears — e.g. a worker
  /// picking up an untraced request after a traced one).
  class Scope {
   public:
    explicit Scope(uint64_t trace_id)
        : saved_(internal::g_current_trace_id) {
      internal::g_current_trace_id = trace_id;
    }
    ~Scope() { internal::g_current_trace_id = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    uint64_t saved_;
  };
};

/// One timed stage: the window from construction to End() (or the
/// destructor) lands in `hist` when it is non-null, and as span `span`
/// when `span` is non-null and the constructing thread carries a trace
/// id. With neither, the Stage reads no clock at all.
class Stage {
 public:
  Stage(Histogram* hist, const char* span)
      : hist_(hist),
        span_(span),
        trace_id_(span != nullptr ? TraceContext::Current() : 0),
        t0_ns_(hist != nullptr || trace_id_ != 0 ? Now() : 0) {}
  ~Stage() { End(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Close the window now and record it; returns its length in ns (0
  /// when nothing is timed). Once closed, End() and the destructor
  /// record nothing more.
  uint64_t End() {
    if (hist_ == nullptr && trace_id_ == 0) return 0;
    uint64_t dur_ns = Now() - t0_ns_;
    Record(hist_, span_, trace_id_, t0_ns_, dur_ns);
    hist_ = nullptr;
    trace_id_ = 0;
    return dur_ns;
  }

  /// The stage clock (NowNanos).
  static uint64_t Now() { return NowNanos(); }

  /// Record a window timed by hand: its duration into `hist` (when
  /// non-null) and span `span` for `trace_id` (when both are set).
  static void Record(Histogram* hist, const char* span, uint64_t trace_id,
                     uint64_t t0_ns, uint64_t dur_ns) {
    if (hist != nullptr) hist->Record(dur_ns);
    if (span != nullptr && trace_id != 0) {
      FlightRecorder::Instance().Record(trace_id, span, t0_ns, dur_ns);
    }
  }

 private:
  Histogram* hist_;
  const char* span_;
  uint64_t trace_id_;
  uint64_t t0_ns_;
};

#else  // !LSTORE_TRACE_ENABLED

class TraceContext {
 public:
  static uint64_t Current() { return 0; }
  static uint64_t NewTraceId() { return 0; }
  class Scope {
   public:
    explicit Scope(uint64_t) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };
};

class Stage {
 public:
  Stage(Histogram*, const char*) {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  uint64_t End() { return 0; }
  static uint64_t Now() { return 0; }
  static void Record(Histogram*, const char*, uint64_t, uint64_t, uint64_t) {}
};

#endif  // LSTORE_TRACE_ENABLED

}  // namespace lstore

#endif  // LSTORE_OBS_SPAN_H_
