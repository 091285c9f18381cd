#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/flight_recorder.h"

namespace lstore {

namespace {

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Actor names become file-name components ("merge:orders" ->
/// "merge_orders"): keep [A-Za-z0-9.-], replace the rest.
std::string SanitizeForFileName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const char* HealthVerdictName(HealthVerdict v) {
  switch (v) {
    case HealthVerdict::kHealthy: return "healthy";
    case HealthVerdict::kSlow: return "slow";
    case HealthVerdict::kStalled: return "stalled";
  }
  return "healthy";
}

// ---------------------------------------------------------------------------
// Heartbeat / HealthRegistry
// ---------------------------------------------------------------------------

Heartbeat::Heartbeat(const HealthRegistry* registry, std::string name,
                     uint64_t slow_ms, uint64_t stall_ms)
    : registry_(registry),
      name_(std::move(name)),
      slow_ms_(slow_ms),
      stall_ms_(stall_ms),
      last_beat_ns_(registry->NowNs()) {}

void Heartbeat::Beat() {
  last_beat_ns_.store(registry_->NowNs(), std::memory_order_relaxed);
  beats_.fetch_add(1, std::memory_order_relaxed);
}

void Heartbeat::BeginWork() {
  busy_.fetch_add(1, std::memory_order_relaxed);
  Beat();
}

void Heartbeat::EndWork() {
  Beat();
  busy_.fetch_sub(1, std::memory_order_relaxed);
}

HealthRegistry::HealthRegistry() : clock_(&NowNanos) {}

std::shared_ptr<Heartbeat> HealthRegistry::Register(std::string name,
                                                    uint64_t slow_ms,
                                                    uint64_t stall_ms) {
  std::lock_guard<std::mutex> g(mu_);
  if (slow_ms == 0) slow_ms = default_slow_ms_;
  if (stall_ms == 0) stall_ms = default_stall_ms_;
  auto hb = std::shared_ptr<Heartbeat>(
      new Heartbeat(this, std::move(name), slow_ms, stall_ms));
  actors_.push_back(hb);
  return hb;
}

void HealthRegistry::set_default_deadlines(uint64_t slow_ms,
                                           uint64_t stall_ms) {
  std::lock_guard<std::mutex> g(mu_);
  if (slow_ms > 0) default_slow_ms_ = slow_ms;
  if (stall_ms > 0) default_stall_ms_ = stall_ms;
}

void HealthRegistry::SetClockForTest(ClockFn clock) {
  clock_.store(clock, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<Heartbeat>> HealthRegistry::Snapshot() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::shared_ptr<Heartbeat>> live;
  live.reserve(actors_.size());
  size_t kept = 0;
  for (size_t i = 0; i < actors_.size(); ++i) {
    if (auto hb = actors_[i].lock()) {
      live.push_back(std::move(hb));
      // Compact in place; the no-gap case must not self-move (a
      // moved-from weak_ptr is empty, which would drop the actor).
      if (kept != i) actors_[kept] = std::move(actors_[i]);
      ++kept;
    }
  }
  actors_.resize(kept);
  return live;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(HealthRegistry* registry, EventLog* events,
                   MetricsRegistry* metrics,
                   std::function<std::string()> dump_fn)
    : registry_(registry), events_(events), dump_fn_(std::move(dump_fn)) {
  if (metrics != nullptr) {
    g_healthy_ = metrics->GetGauge("lstore_health_healthy",
                                   "Background actors classified healthy");
    g_slow_ = metrics->GetGauge(
        "lstore_health_slow",
        "Background actors busy past their slow deadline");
    g_stalled_ = metrics->GetGauge(
        "lstore_health_stalled",
        "Background actors busy past their stall deadline");
    g_actors_ = metrics->GetGauge("lstore_health_actors",
                                  "Registered background actors");
  }
}

void Watchdog::set_dump_dir(std::string dir) {
  std::lock_guard<std::mutex> g(sweep_mu_);
  dump_dir_ = std::move(dir);
}

HealthReport Watchdog::SweepOnce() {
  std::lock_guard<std::mutex> g(sweep_mu_);
  const uint64_t now_ns = registry_->NowNs();

  HealthReport report;
  for (auto& hb : registry_->Snapshot()) {
    ActorHealth row;
    row.name = hb->name();
    row.busy = hb->busy();
    row.beats = hb->beats();
    row.slow_ms = hb->slow_ms();
    row.stall_ms = hb->stall_ms();
    uint64_t last = hb->last_beat_ns();
    // A beat stamped after our `now` read (or before a test clock
    // swap) clamps to zero rather than wrapping.
    uint64_t since_ns = now_ns > last ? now_ns - last : 0;
    row.since_beat_ms = since_ns / 1000000;
    // Busy-scoped classification: idle actors are healthy by
    // definition — waiting for work is not a liveness failure.
    if (row.busy && row.since_beat_ms >= row.stall_ms) {
      row.verdict = HealthVerdict::kStalled;
    } else if (row.busy && row.since_beat_ms >= row.slow_ms) {
      row.verdict = HealthVerdict::kSlow;
    } else {
      row.verdict = HealthVerdict::kHealthy;
    }
    report.actors.push_back(std::move(row));
  }
  std::sort(report.actors.begin(), report.actors.end(),
            [](const ActorHealth& a, const ActorHealth& b) {
              return a.name < b.name;
            });

  CountVerdicts(&report);

  for (auto& kv : state_) kv.second.seen = false;
  for (const ActorHealth& row : report.actors) {
    ActorState& st = state_[row.name];
    st.seen = true;
    HealthVerdict prev = st.verdict;
    if (row.verdict != prev) {
      st.verdict = row.verdict;
      if (events_ != nullptr) {
        EventSeverity sev =
            row.verdict == HealthVerdict::kStalled ? EventSeverity::kError
            : row.verdict == HealthVerdict::kSlow  ? EventSeverity::kWarn
                                                   : EventSeverity::kInfo;
        char fields[160];
        std::snprintf(fields, sizeof(fields),
                      "\"verdict\":\"%s\",\"prev\":\"%s\","
                      "\"since_beat_ms\":%" PRIu64,
                      HealthVerdictName(row.verdict), HealthVerdictName(prev),
                      row.since_beat_ms);
        events_->Emit(sev, row.name, "watchdog", fields);
      }
    }
    if (row.verdict == HealthVerdict::kStalled) {
      if (!st.dumped) {
        // Exactly one flight-recorder dump per stall episode,
        // captured at detection time — the post-mortem timeline
        // before the rings overwrite it.
        st.dumped = true;
        if (!dump_dir_.empty() && dump_fn_) {
          std::string path = dump_dir_ + "/stall-" +
                             SanitizeForFileName(row.name) + "-" +
                             std::to_string(WallClockMs()) + ".trace.json";
          std::string dump = dump_fn_();
          std::FILE* f = std::fopen(path.c_str(), "w");
          if (f != nullptr) {
            std::fwrite(dump.data(), 1, dump.size(), f);
            std::fclose(f);
          }
        }
        stall_dumps_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      st.dumped = false;  // recovery re-arms the episode dump
    }
  }
  // Drop episode state of unregistered actors (e.g. closed sessions).
  for (auto it = state_.begin(); it != state_.end();) {
    it = it->second.seen ? std::next(it) : state_.erase(it);
  }

  if (g_healthy_ != nullptr) {
    g_healthy_->Set(static_cast<int64_t>(report.healthy));
    g_slow_->Set(static_cast<int64_t>(report.slow));
    g_stalled_->Set(static_cast<int64_t>(report.stalled));
    g_actors_->Set(static_cast<int64_t>(report.actors.size()));
  }
  return report;
}

void CountVerdicts(HealthReport* report) {
  report->healthy = report->slow = report->stalled = 0;
  for (const ActorHealth& a : report->actors) {
    switch (a.verdict) {
      case HealthVerdict::kHealthy: ++report->healthy; break;
      case HealthVerdict::kSlow: ++report->slow; break;
      case HealthVerdict::kStalled: ++report->stalled; break;
    }
  }
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

std::string RenderHealthJson(const HealthReport& report) {
  std::string out;
  out.reserve(256 + report.actors.size() * 128);
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"healthy\":%" PRIu64 ",\"slow\":%" PRIu64
                ",\"stalled\":%" PRIu64 ",\"actors\":[",
                report.healthy, report.slow, report.stalled);
  out += buf;
  bool first = true;
  for (const ActorHealth& a : report.actors) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(a.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"verdict\":\"%s\",\"busy\":%s,\"since_beat_ms\":%" PRIu64
                  ",\"beats\":%" PRIu64 ",\"slow_ms\":%" PRIu64
                  ",\"stall_ms\":%" PRIu64 "}",
                  HealthVerdictName(a.verdict), a.busy ? "true" : "false",
                  a.since_beat_ms, a.beats, a.slow_ms, a.stall_ms);
    out += buf;
  }
  out += "],\"events\":[";
  first = true;
  for (const Event& e : report.recent_events) {
    if (!first) out += ',';
    first = false;
    out += RenderEventJson(e);
  }
  out += "]}";
  return out;
}

}  // namespace lstore
