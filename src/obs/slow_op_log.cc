#include "obs/slow_op_log.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/event_log.h"

namespace lstore {

SlowOpLog::SlowOpLog(std::string path, uint64_t threshold_us,
                     Counter* slow_ops_total, uint64_t max_bytes)
    : path_(std::move(path)),
      threshold_ns_(threshold_us * 1000),
      slow_ops_total_(slow_ops_total),
      max_bytes_(max_bytes) {}

void SlowOpLog::Dump(uint64_t trace_id, const char* op, uint32_t request_id,
                     uint64_t total_ns,
                     const std::vector<TraceSpan>& spans) {
  uint64_t ts_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string line;
  line.reserve(256 + spans.size() * 64);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"ts_ms\":%" PRIu64 ",\"op\":\"", ts_ms);
  line += buf;
  line += JsonEscape(op != nullptr ? op : "?");
  std::snprintf(buf, sizeof(buf),
                "\",\"request_id\":%u,\"trace_id\":\"0x%" PRIx64
                "\",\"total_us\":%.3f,\"spans\":[",
                request_id, trace_id, static_cast<double>(total_ns) / 1000.0);
  line += buf;
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) line += ',';
    first = false;
    line += "{\"name\":\"";
    line += JsonEscape(s.name != nullptr ? s.name : "?");
    std::snprintf(buf, sizeof(buf),
                  "\",\"t0_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                  ",\"tid\":%" PRIu64 "}",
                  s.t0_ns, s.dur_ns, s.tid);
    line += buf;
  }
  line += "]}\n";

  std::lock_guard<std::mutex> lock(mu_);
  // Open-append-close per line with the shared size-rotation policy
  // (event_log.h): rotation-safe, and a whole line lands in one
  // fwrite so concurrent external readers never see a torn record.
  AppendLineRotated(path_, max_bytes_, line);
  if (slow_ops_total_ != nullptr) slow_ops_total_->Add(1);
}

}  // namespace lstore
