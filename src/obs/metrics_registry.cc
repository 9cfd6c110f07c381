#include "obs/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace diknn {

const char* GaugeModeName(GaugeMode mode) {
  switch (mode) {
    case GaugeMode::kMax: return "max";
    case GaugeMode::kMin: return "min";
    case GaugeMode::kSum: return "sum";
  }
  return "?";
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

namespace {

// Merges name-sorted entry vectors; `fold` combines entries that exist on
// both sides, new names are inserted in order.
template <typename Entry, typename Fold>
void MergeSorted(std::vector<Entry>& into, const std::vector<Entry>& from,
                 Fold fold) {
  std::vector<Entry> merged;
  merged.reserve(into.size() + from.size());
  size_t i = 0;
  size_t j = 0;
  while (i < into.size() && j < from.size()) {
    if (into[i].name < from[j].name) {
      merged.push_back(std::move(into[i++]));
    } else if (from[j].name < into[i].name) {
      merged.push_back(from[j++]);
    } else {
      Entry e = std::move(into[i++]);
      fold(e, from[j++]);
      merged.push_back(std::move(e));
    }
  }
  while (i < into.size()) merged.push_back(std::move(into[i++]));
  while (j < from.size()) merged.push_back(from[j++]);
  into = std::move(merged);
}

void AppendJsonNumber(std::ostringstream& os, double v) {
  // Shortest round-trippable form keeps the JSON deterministic and
  // byte-comparable across shard counts.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  MergeSorted(counters, other.counters,
              [](Counter& a, const Counter& b) { a.value += b.value; });
  MergeSorted(gauges, other.gauges, [](Gauge& a, const Gauge& b) {
    if (!b.set) return;
    if (!a.set) {
      a.value = b.value;
      a.set = true;
      return;
    }
    switch (a.mode) {
      case GaugeMode::kMax: a.value = std::max(a.value, b.value); break;
      case GaugeMode::kMin: a.value = std::min(a.value, b.value); break;
      case GaugeMode::kSum: a.value += b.value; break;
    }
  });
  MergeSorted(histograms, other.histograms,
              [](Histogram& a, const Histogram& b) { a.hist.Merge(b.hist); });
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const Counter& c, const std::string& n) { return c.name < n; });
  return (it != counters.end() && it->name == name) ? it->value : 0;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  const auto it = std::lower_bound(
      gauges.begin(), gauges.end(), name,
      [](const Gauge& g, const std::string& n) { return g.name < n; });
  return (it != gauges.end() && it->name == name) ? it->value : 0.0;
}

const MetricsHistogram* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  const auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const Histogram& h, const std::string& n) { return h.name < n; });
  return (it != histograms.end() && it->name == name) ? &it->hist : nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << counters[i].name
       << "\": " << counters[i].value;
  }
  os << "}, \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << gauges[i].name << "\": ";
    AppendJsonNumber(os, gauges[i].value);
  }
  os << "}, \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const MetricsHistogram& h = histograms[i].hist;
    os << (i > 0 ? ", " : "") << '"' << histograms[i].name
       << "\": {\"count\": " << h.Count() << ", \"mean\": ";
    AppendJsonNumber(os, h.Mean());
    os << ", \"min\": ";
    AppendJsonNumber(os, h.Min());
    os << ", \"p50\": ";
    AppendJsonNumber(os, h.Percentile(50.0));
    os << ", \"p99\": ";
    AppendJsonNumber(os, h.Percentile(99.0));
    os << ", \"max\": ";
    AppendJsonNumber(os, h.Max());
    os << "}";
  }
  os << "}}";
  return os.str();
}

std::string ShardMetricName(int shard, const std::string& name) {
  return "psim.shard" + std::to_string(shard) + "." + name;
}

MetricsSnapshot MergeShardSnapshots(
    const std::vector<MetricsSnapshot>& shards) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& s : shards) merged.Merge(s);
  return merged;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {

// "counter", "gauge(max)", "histogram" — the registration's shape in one
// word, so a duplicate-name error reads without cross-referencing code.
std::string DescribeRegistration(MetricKind kind, GaugeMode mode) {
  std::string desc = MetricKindName(kind);
  if (kind == MetricKind::kGauge) {
    desc += '(';
    desc += GaugeModeName(mode);
    desc += ')';
  }
  return desc;
}

}  // namespace

bool MetricsRegistry::ClaimName(const std::string& name, MetricKind kind,
                                GaugeMode mode) {
  const auto it = std::lower_bound(
      names_.begin(), names_.end(), name,
      [](const NameEntry& e, const std::string& n) { return e.name < n; });
  if (it != names_.end() && it->name == name) {
    last_error_ = "duplicate metric \"" + name + "\": registered as " +
                  DescribeRegistration(it->kind, it->gauge_mode) +
                  ", re-registered as " + DescribeRegistration(kind, mode);
    if (kind == MetricKind::kGauge && it->kind == MetricKind::kGauge &&
        it->gauge_mode != mode) {
      last_error_ += " (gauge merge-mode mismatch)";
    }
    return false;
  }
  names_.insert(it, NameEntry{name, kind, mode});
  last_error_.clear();
  return true;
}

MetricId MetricsRegistry::RegisterCounter(const std::string& name) {
  if (!ClaimName(name, MetricKind::kCounter, GaugeMode::kMax)) {
    return kInvalidMetricId;
  }
  counters_.push_back(MetricsSnapshot::Counter{name, 0});
  return static_cast<MetricId>(counters_.size() - 1);
}

MetricId MetricsRegistry::RegisterGauge(const std::string& name,
                                        GaugeMode mode) {
  if (!ClaimName(name, MetricKind::kGauge, mode)) return kInvalidMetricId;
  gauges_.push_back(MetricsSnapshot::Gauge{name, mode, 0.0, false});
  return static_cast<MetricId>(gauges_.size() - 1);
}

MetricId MetricsRegistry::RegisterHistogram(const std::string& name) {
  if (!ClaimName(name, MetricKind::kHistogram, GaugeMode::kMax)) {
    return kInvalidMetricId;
  }
  histograms_.push_back(MetricsSnapshot::Histogram{name, {}});
  return static_cast<MetricId>(histograms_.size() - 1);
}

void MetricsRegistry::Set(MetricId gauge, double value) {
  if (gauge < 0 || static_cast<size_t>(gauge) >= gauges_.size()) return;
  MetricsSnapshot::Gauge& g = gauges_[gauge];
  if (!g.set) {
    g.value = value;
    g.set = true;
    return;
  }
  switch (g.mode) {
    case GaugeMode::kMax: g.value = std::max(g.value, value); break;
    case GaugeMode::kMin: g.value = std::min(g.value, value); break;
    case GaugeMode::kSum: g.value += value; break;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.histograms = histograms_;
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace diknn
