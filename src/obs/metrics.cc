#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace lstore {

namespace obs_internal {

unsigned NextThreadSlot() {
  static std::atomic<unsigned> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs_internal

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target recording (1-based, ceil) against the
  // snapshot's OWN count — never a count read elsewhere, so a
  // concurrent recording cannot push the rank past the distribution.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return upper_bounds[i];
  }
  return max_bound;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  snap.upper_bounds.resize(kBuckets);
  for (unsigned i = 0; i < kBuckets; ++i) {
    snap.upper_bounds[i] = BucketUpperBound(i);
  }
  for (const auto& s : shards_) {
    for (unsigned i = 0; i < kBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (unsigned i = 0; i < kBuckets; ++i) {
    snap.count += snap.buckets[i];
    if (snap.buckets[i] != 0) snap.max_bound = snap.upper_bounds[i];
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = counters_[name];
  if (slot.metric == nullptr) {
    slot.metric = std::make_unique<Counter>();
    slot.help = help;
  }
  return slot.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = gauges_[name];
  if (slot.metric == nullptr) {
    slot.metric = std::make_unique<Gauge>();
    slot.help = help;
  }
  return slot.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = histograms_[name];
  if (slot.metric == nullptr) {
    slot.metric = std::make_unique<Histogram>();
    slot.help = help;
  }
  return slot.metric.get();
}

void MetricsRegistry::AddCollector(std::function<void(MetricsRegistry&)> fn) {
  std::lock_guard<std::mutex> g(mu_);
  collectors_.push_back(std::move(fn));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Run collectors outside mu_ (they call GetGauge/Set on this same
  // registry), on a copy of the collector list.
  std::vector<std::function<void(MetricsRegistry&)>> collectors;
  {
    std::lock_guard<std::mutex> g(mu_);
    collectors = collectors_;
  }
  auto* self = const_cast<MetricsRegistry*>(this);
  for (const auto& fn : collectors) fn(*self);

  MetricsSnapshot snap;
  std::lock_guard<std::mutex> g(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, slot] : counters_) {
    snap.counters.push_back({name, slot.help, slot.metric->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, slot] : gauges_) {
    snap.gauges.push_back({name, slot.help, slot.metric->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, slot] : histograms_) {
    snap.histograms.push_back({name, slot.help, slot.metric->Snapshot()});
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

const MetricsSnapshot::CounterEntry* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const auto& e : counters) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeEntry* MetricsSnapshot::FindGauge(
    const std::string& name) const {
  for (const auto& e : gauges) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& e : histograms) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const CounterEntry* e = FindCounter(name);
  return e != nullptr ? e->value : 0;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  const GaugeEntry* e = FindGauge(name);
  return e != nullptr ? e->value : 0;
}

namespace {

void AppendHeader(std::string* out, const std::string& name,
                  const std::string& help, const char* type) {
  if (!help.empty()) {
    out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  }
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

/// JSON string escaping is unnecessary here: metric names are
/// engine-chosen [a-z0-9_] identifiers. Kept to names only.
void AppendJsonKey(std::string* out, const std::string& name) {
  out->append("\"").append(name).append("\":");
}

}  // namespace

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  for (const auto& e : counters) {
    AppendHeader(&out, e.name, e.help, "counter");
    out.append(e.name).append(" ");
    AppendU64(&out, e.value);
    out.append("\n");
  }
  for (const auto& e : gauges) {
    AppendHeader(&out, e.name, e.help, "gauge");
    out.append(e.name).append(" ");
    AppendI64(&out, e.value);
    out.append("\n");
  }
  static constexpr struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99},
                    {"0.999", 0.999}};
  for (const auto& e : histograms) {
    AppendHeader(&out, e.name, e.help, "summary");
    for (const auto& qd : kQuantiles) {
      out.append(e.name)
          .append("{quantile=\"")
          .append(qd.label)
          .append("\"} ");
      AppendU64(&out, e.hist.Percentile(qd.q));
      out.append("\n");
    }
    out.append(e.name).append("_sum ");
    AppendU64(&out, e.hist.sum);
    out.append("\n");
    out.append(e.name).append("_count ");
    AppendU64(&out, e.hist.count);
    out.append("\n");
  }
  return out;
}

std::string MetricsSnapshot::RenderJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& e : counters) {
    if (!first) out.append(",");
    first = false;
    AppendJsonKey(&out, e.name);
    AppendU64(&out, e.value);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& e : gauges) {
    if (!first) out.append(",");
    first = false;
    AppendJsonKey(&out, e.name);
    AppendI64(&out, e.value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& e : histograms) {
    if (!first) out.append(",");
    first = false;
    AppendJsonKey(&out, e.name);
    out.append("{\"count\":");
    AppendU64(&out, e.hist.count);
    out.append(",\"sum\":");
    AppendU64(&out, e.hist.sum);
    out.append(",\"p50\":");
    AppendU64(&out, e.hist.Percentile(0.5));
    out.append(",\"p95\":");
    AppendU64(&out, e.hist.Percentile(0.95));
    out.append(",\"p99\":");
    AppendU64(&out, e.hist.Percentile(0.99));
    out.append(",\"p999\":");
    AppendU64(&out, e.hist.Percentile(0.999));
    out.append(",\"max\":");
    AppendU64(&out, e.hist.max_bound);
    out.append("}");
  }
  out.append("}}");
  return out;
}

}  // namespace lstore
