// The shared bench-driver API: one flag vocabulary (BenchArgs), the
// latency reservoir, the op mix and SLO parsers, the BENCH_ci.json
// emitters and the scratch-directory helpers. The drivers built on it:
// bench/workload (workload_driver.h), bench/paper (the paper's
// figures), bench/micro_batch, bench/fig_recovery, and
// `lstore_cli bench`. Sizes and durations come from flags only.

#ifndef LSTORE_BENCH_BENCH_COMMON_H_
#define LSTORE_BENCH_BENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace lstore {
namespace bench {

inline void PrintHeader(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper expectation: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

/// Append one metric row (JSON lines) to the file named by the
/// LSTORE_BENCH_JSON env var; no-op when unset. CI's perf-smoke job
/// points it at BENCH_ci.json and uploads the file as an artifact, so
/// the bench trajectory accumulates run over run.
inline void EmitMetric(const char* bench, const std::string& metric,
                       double value, const char* unit) {
  const char* path = std::getenv("LSTORE_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\":\"%s\",\"metric\":\"%s\",\"value\":%.3f,"
               "\"unit\":\"%s\"}\n",
               bench, metric.c_str(), value, unit);
  std::fclose(f);
}

/// Dump an engine-metrics section into the bench JSON: every counter
/// and gauge as one row, and each histogram as count/p50/p95/p99/p999
/// rows. Rows carry `bench` and a `section` label so BENCH_ci.json
/// keeps bench throughput and engine internals side by side.
inline void EmitSnapshot(const char* bench, const char* section,
                         const MetricsSnapshot& snap) {
  const char* path = std::getenv("LSTORE_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  auto row = [&](const std::string& metric, double value, const char* unit) {
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"section\":\"%s\",\"metric\":\"%s\","
                 "\"value\":%.3f,\"unit\":\"%s\"}\n",
                 bench, section, metric.c_str(), value, unit);
  };
  for (const auto& c : snap.counters) {
    row(c.name, static_cast<double>(c.value), "count");
  }
  for (const auto& g : snap.gauges) {
    row(g.name, static_cast<double>(g.value), "value");
  }
  for (const auto& h : snap.histograms) {
    if (h.hist.count == 0) continue;
    row(h.name + ".count", static_cast<double>(h.hist.count), "count");
    row(h.name + ".p50", static_cast<double>(h.hist.Percentile(0.5)), "le");
    row(h.name + ".p95", static_cast<double>(h.hist.Percentile(0.95)), "le");
    row(h.name + ".p99", static_cast<double>(h.hist.Percentile(0.99)), "le");
    row(h.name + ".p999", static_cast<double>(h.hist.Percentile(0.999)),
        "le");
  }
  std::fclose(f);
}

/// Monotonic wall clock in milliseconds (durability benchmarks).
inline double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fresh scratch directory for durability benchmarks (fig_recovery):
/// unique per process; callers remove it when done.
inline std::string ScratchDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/lstore_" + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Total bytes of files under `dir` whose name ends with `suffix`.
inline uint64_t DirBytes(const std::string& dir, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string p = e.path().string();
    if (p.size() >= suffix.size() &&
        p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += std::filesystem::file_size(e.path());
    }
  }
  return total;
}

using BenchClock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double Secs(BenchClock::time_point a, BenchClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

/// Exit with a message when a setup step fails (drivers have no
/// meaningful recovery from a failed open/create/load).
inline void Must(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

/// Best-effort pin of the calling thread to one core (foreground
/// workload threads pin to distinct cores so tail latencies measure
/// the engine, not the scheduler's migrations). No-op on failure.
inline void PinToCore(uint32_t index) {
#if defined(__linux__)
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cores, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

/// Fixed-capacity latency sample reservoir (uniform reservoir
/// sampling past the cap), giving exact-sample percentiles that the
/// engine's log-scale histograms can be validated against. One
/// reservoir per (thread, op class); merge after the threads join.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity = 1u << 16, uint64_t seed = 7)
      : cap_(capacity), rng_(seed) {}

  void Record(uint64_t ns) {
    ++count_;
    if (samples_.size() < cap_) {
      samples_.push_back(ns);
    } else {
      uint64_t i = rng_.Uniform(count_);
      if (i < cap_) samples_[i] = ns;
    }
  }

  /// Pool another reservoir's samples. Exact when neither overflowed
  /// its cap; otherwise a same-rate approximation (fine for the
  /// equal-duration worker threads this is used for).
  void Merge(const LatencyReservoir& other) {
    count_ += other.count_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  uint64_t count() const { return count_; }

  /// q in [0, 1]; 0 when empty.
  uint64_t PercentileNs(double q) const {
    if (samples_.empty()) return 0;
    std::vector<uint64_t> sorted = samples_;
    size_t idx = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
    return sorted[idx];
  }

  double PercentileUs(double q) const { return PercentileNs(q) / 1000.0; }

 private:
  size_t cap_;
  uint64_t count_ = 0;
  std::vector<uint64_t> samples_;
  Random rng_;
};

/// Operation mix of the workload driver, in percent (must total 100).
struct OpMix {
  uint32_t read = 95;
  uint32_t insert = 0;
  uint32_t update = 5;
  uint32_t del = 0;
  uint32_t scan = 0;
  uint32_t multiread = 0;

  /// Parse "read=70,update=20,insert=5,delete=1,scan=2,multiread=2".
  /// Named classes are set, omitted ones zeroed.
  bool Parse(const std::string& spec, std::string* err) {
    OpMix m{0, 0, 0, 0, 0, 0};
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t eq = spec.find('=', pos);
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      if (eq == std::string::npos || eq > comma) {
        *err = "bad op mix term: " + spec.substr(pos, comma - pos);
        return false;
      }
      std::string name = spec.substr(pos, eq - pos);
      uint32_t pct =
          static_cast<uint32_t>(std::strtoul(spec.c_str() + eq + 1, nullptr, 10));
      if (name == "read") m.read = pct;
      else if (name == "insert") m.insert = pct;
      else if (name == "update") m.update = pct;
      else if (name == "delete") m.del = pct;
      else if (name == "scan") m.scan = pct;
      else if (name == "multiread") m.multiread = pct;
      else {
        *err = "unknown op class: " + name;
        return false;
      }
      pos = comma + 1;
    }
    if (m.read + m.insert + m.update + m.del + m.scan + m.multiread != 100) {
      *err = "op mix must total 100%";
      return false;
    }
    *this = m;
    return true;
  }

  std::string ToString() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "read=%u,insert=%u,update=%u,delete=%u,scan=%u,multiread=%u",
                  read, insert, update, del, scan, multiread);
    return buf;
  }
};

/// Declarative SLO bounds checked against a driver's measured stats:
///   --slo p99_read_us=500,p999_update_us=2000,min_total_ops_s=10000
/// Plain terms are upper bounds on a stat; a `min_` prefix makes the
/// term a lower bound on the stat named by the rest. A bound naming a
/// stat the run did not produce is itself a violation (a gate must
/// never pass because its metric silently vanished).
struct SloSpec {
  struct Bound {
    std::string stat;  ///< key into the stats map
    double limit = 0;
    bool lower = false;  ///< true: stat must be >= limit
  };
  std::vector<Bound> bounds;

  bool empty() const { return bounds.empty(); }

  bool Parse(const std::string& spec, std::string* err) {
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t eq = spec.find('=', pos);
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      if (eq == std::string::npos || eq > comma) {
        *err = "bad SLO term: " + spec.substr(pos, comma - pos);
        return false;
      }
      Bound b;
      b.stat = spec.substr(pos, eq - pos);
      b.limit = std::strtod(spec.c_str() + eq + 1, nullptr);
      if (b.stat.rfind("min_", 0) == 0) {
        b.lower = true;
        b.stat = b.stat.substr(4);
      }
      if (b.stat.empty()) {
        *err = "empty SLO stat name";
        return false;
      }
      bounds.push_back(std::move(b));
      pos = comma + 1;
    }
    return true;
  }

  /// Append a human-readable line per violated bound; returns the
  /// number of violations.
  uint32_t Check(const std::map<std::string, double>& stats,
                 std::vector<std::string>* violations) const {
    uint32_t bad = 0;
    for (const Bound& b : bounds) {
      auto it = stats.find(b.stat);
      char line[256];
      if (it == stats.end()) {
        std::snprintf(line, sizeof(line), "SLO VIOLATION: %s was not measured",
                      b.stat.c_str());
        violations->push_back(line);
        ++bad;
        continue;
      }
      bool ok = b.lower ? it->second >= b.limit : it->second <= b.limit;
      if (!ok) {
        std::snprintf(line, sizeof(line),
                      "SLO VIOLATION: %s = %.1f (bound: %s %.1f)",
                      b.stat.c_str(), it->second, b.lower ? ">=" : "<=",
                      b.limit);
        violations->push_back(line);
        ++bad;
      }
    }
    return bad;
  }
};

/// The shared driver flag vocabulary.
struct BenchArgs {
  uint64_t rows = 100000;                ///< --rows: preloaded table rows
  std::vector<uint32_t> threads = {8};   ///< --threads 1,2,4 (sweep points)
  uint64_t duration_ms = 300;            ///< --duration-ms per point
  uint64_t warmup_ms = 200;              ///< --warmup-ms before measuring
  double theta = 0.99;                   ///< --theta: zipf skew; 0 = uniform
  uint64_t seed = 42;                    ///< --seed
  OpMix mix;                             ///< --mix
  uint32_t columns = 5;                  ///< --columns: key + data columns
  uint32_t scan_rows = 1024;             ///< --scan-rows per scan op
  uint32_t batch = 16;                   ///< --batch: multiread batch size
  uint32_t pipeline = 8;                 ///< --pipeline: wire in-flight depth
  bool pin = true;                       ///< --pin 0|1: core-pin workers
  bool memory = false;                   ///< --memory: in-memory database
  bool sync = false;                     ///< --sync 0|1: fsync on commit
  std::string mode = "inproc";           ///< --mode inproc|wire
  std::string host = "127.0.0.1";        ///< --host (wire)
  uint16_t port = 0;                     ///< --port (wire; 0 = self-hosted)
  uint32_t server_workers = 0;           ///< --workers (self-hosted server)
  std::string table = "usertable";       ///< --table (wire)
  SloSpec slo;                           ///< --slo
  bool trace = false;                    ///< --trace: sample traced ops
  uint32_t trace_sample = 64;            ///< --trace-sample: 1-in-N ops
  std::string trace_out;                 ///< --trace-out: Chrome JSON file
  std::string profile = "all";           ///< --profile: bench/paper's figure

  /// Parse argv; unknown flags (or --help) print usage and fail.
  /// Flags a specific driver ignores are still accepted, so the whole
  /// suite shares one vocabulary.
  bool Parse(int argc, char** argv, std::string* err) {
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      // Fetch the flag's value argument; sets *err when it is absent.
      auto need = [&](const char** out) {
        if (i + 1 >= argc) {
          *err = "missing value for " + flag;
          return false;
        }
        *out = argv[++i];
        return true;
      };
      auto u32 = [](const char* s) {
        return static_cast<uint32_t>(std::strtoul(s, nullptr, 10));
      };
      const char* v = nullptr;
      if (flag == "--rows" || flag == "--scale") {
        if (!need(&v)) return false;
        rows = std::strtoull(v, nullptr, 10);
      } else if (flag == "--threads") {
        if (!need(&v)) return false;
        threads.clear();
        for (const char* p = v; *p != '\0';) {
          threads.push_back(u32(p));
          while (*p != '\0' && *p != ',') ++p;
          if (*p == ',') ++p;
        }
        if (threads.empty()) {
          *err = "--threads needs a comma list";
          return false;
        }
      } else if (flag == "--duration-ms") {
        if (!need(&v)) return false;
        duration_ms = std::strtoull(v, nullptr, 10);
      } else if (flag == "--warmup-ms") {
        if (!need(&v)) return false;
        warmup_ms = std::strtoull(v, nullptr, 10);
      } else if (flag == "--theta") {
        if (!need(&v)) return false;
        theta = std::strtod(v, nullptr);
      } else if (flag == "--dist") {
        if (!need(&v)) return false;
        std::string d = v;
        if (d == "uniform") {
          theta = 0.0;
        } else if (d != "zipfian") {
          *err = "--dist must be zipfian or uniform";
          return false;
        }
      } else if (flag == "--seed") {
        if (!need(&v)) return false;
        seed = std::strtoull(v, nullptr, 10);
      } else if (flag == "--mix") {
        if (!need(&v)) return false;
        if (!mix.Parse(v, err)) return false;
      } else if (flag == "--columns") {
        if (!need(&v)) return false;
        columns = std::max(2u, u32(v));
      } else if (flag == "--scan-rows") {
        if (!need(&v)) return false;
        scan_rows = u32(v);
      } else if (flag == "--batch") {
        if (!need(&v)) return false;
        batch = std::max(1u, u32(v));
      } else if (flag == "--pipeline") {
        if (!need(&v)) return false;
        pipeline = std::max(1u, u32(v));
      } else if (flag == "--pin") {
        if (!need(&v)) return false;
        pin = u32(v) != 0;
      } else if (flag == "--memory") {
        memory = true;
      } else if (flag == "--sync") {
        if (!need(&v)) return false;
        sync = u32(v) != 0;
      } else if (flag == "--mode") {
        if (!need(&v)) return false;
        mode = v;
        if (mode != "inproc" && mode != "wire") {
          *err = "--mode must be inproc or wire";
          return false;
        }
      } else if (flag == "--host") {
        if (!need(&v)) return false;
        host = v;
      } else if (flag == "--port") {
        if (!need(&v)) return false;
        port = static_cast<uint16_t>(u32(v));
      } else if (flag == "--workers") {
        if (!need(&v)) return false;
        server_workers = u32(v);
      } else if (flag == "--table") {
        if (!need(&v)) return false;
        table = v;
      } else if (flag == "--slo") {
        if (!need(&v)) return false;
        if (!slo.Parse(v, err)) return false;
      } else if (flag == "--trace") {
        trace = true;
      } else if (flag == "--trace-sample") {
        if (!need(&v)) return false;
        trace_sample = std::max(1u, u32(v));
      } else if (flag == "--trace-out") {
        if (!need(&v)) return false;
        trace_out = v;
      } else if (flag == "--profile") {
        if (!need(&v)) return false;
        profile = v;
      } else {
        *err = flag == "--help" ? "" : "unknown flag: " + flag;
        return false;
      }
    }
    return true;
  }

  /// Parse-or-exit wrapper with the shared usage text; the sweep is
  /// `default_threads` unless --threads is given.
  static BenchArgs ParseOrDie(int argc, char** argv,
                              std::vector<uint32_t> default_threads = {8}) {
    BenchArgs args;
    args.threads = std::move(default_threads);
    std::string err;
    if (!args.Parse(argc, argv, &err)) {
      if (!err.empty()) std::fprintf(stderr, "%s\n", err.c_str());
      std::fprintf(
          stderr,
          "flags: --rows N --threads A,B,C --duration-ms N --warmup-ms N\n"
          "       --mix read=..,insert=..,update=..,delete=..,scan=..,"
          "multiread=..\n"
          "       --theta F (0=uniform) --dist zipfian|uniform --seed N\n"
          "       --columns N --scan-rows N --batch N --pipeline N --pin 0|1\n"
          "       --memory --sync 0|1 --mode inproc|wire --host H --port P\n"
          "       --workers N --table T --slo p99_read_us=..,min_total_ops_s=..\n"
          "       --trace --trace-sample N --trace-out FILE\n"
          "       --profile NAME (bench/paper: fig7..fig10, table7..table9,\n"
          "         range-size, skew, cumulation, all)\n");
      std::exit(2);
    }
    return args;
  }
};

}  // namespace bench
}  // namespace lstore

#endif  // LSTORE_BENCH_BENCH_COMMON_H_
