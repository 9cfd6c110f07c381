// Named metrics with deterministic cross-shard merging.
//
// Each run (the unit of `--jobs` parallelism) owns one MetricsRegistry —
// a private, lock-free store of counters, gauges, and log-bucketed
// histograms registered by name. At the end of the run the registry is
// frozen into a MetricsSnapshot (name-sorted), carried in RunMetrics, and
// merged in seed order by AggregateRuns — the same integer-count merge
// discipline that makes SloReport bit-identical at any jobs count:
// counters add, histogram bucket counts add, gauges combine by their
// declared mode, and doubles are only ever combined in the fixed seed
// order, never in thread-completion order.

#ifndef DIKNN_OBS_METRICS_REGISTRY_H_
#define DIKNN_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/log_histogram.h"

namespace diknn {

/// How two shards' values of the same gauge combine.
enum class GaugeMode : uint8_t {
  kMax = 0,  ///< Peak across shards (e.g. peak in-flight queries).
  kMin,      ///< Trough across shards.
  kSum,      ///< Total across shards (for non-count totals, e.g. joules).
};

const char* GaugeModeName(GaugeMode mode);

/// What a registered name refers to; used for duplicate-registration
/// diagnostics.
enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge,
  kHistogram,
};

const char* MetricKindName(MetricKind kind);

/// Handle returned by registration; indexes are per-kind.
using MetricId = int32_t;
inline constexpr MetricId kInvalidMetricId = -1;

/// Histogram of a registered metric: 4 buckets per octave over 40
/// octaves, [1e-6, ~1.1e6), wide enough for latencies, hop counts or byte
/// sizes alike. Same merge discipline as SloReport's LatencyHistogram.
using MetricsHistogram = LogHistogram<1e-6, 4, 160>;

/// Frozen, name-sorted view of one registry (or a merge of several).
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    uint64_t value = 0;
    bool operator==(const Counter&) const = default;
  };
  struct Gauge {
    std::string name;
    GaugeMode mode = GaugeMode::kMax;
    double value = 0.0;
    bool set = false;  ///< Never-set gauges merge as identity.
    bool operator==(const Gauge&) const = default;
  };
  struct Histogram {
    std::string name;
    MetricsHistogram hist;
    bool operator==(const Histogram&) const = default;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  /// Folds `other` into this snapshot by name (union; both sides stay
  /// name-sorted). Deterministic for a fixed merge order.
  void Merge(const MetricsSnapshot& other);

  /// Counter value by name; 0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  /// Gauge value by name; 0 when absent.
  double GaugeValue(const std::string& name) const;
  /// Histogram by name; nullptr when absent.
  const MetricsHistogram* FindHistogram(const std::string& name) const;

  /// Deterministic JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with names in sorted order.
  std::string ToJson() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Name of a shard-attributed metric: "psim.shard3.frames_sent" for
/// (3, "frames_sent"). The per-shard names are disjoint across shards, so
/// MergeShardSnapshots unions them while the canonical (unprefixed)
/// counters add up to partition-invariant totals.
std::string ShardMetricName(int shard, const std::string& name);

/// Merges per-shard snapshots in shard-id order (index order of `shards`).
/// Same fold as MetricsSnapshot::Merge — counters add, gauges combine by
/// mode, histogram buckets add — applied left to right so double-valued
/// gauges combine in a fixed order regardless of which worker thread
/// finished first.
MetricsSnapshot MergeShardSnapshots(const std::vector<MetricsSnapshot>& shards);

/// Per-run metrics store. Registration is explicit and duplicate names
/// are rejected (returns kInvalidMetricId) so two subsystems cannot
/// silently alias one metric; the rejection reason — which name, what it
/// was already registered as, what the clashing registration asked for,
/// including gauge-mode mismatches — is retained in last_error(). All
/// mutation paths are branch-and-store on a dense vector — no locks, no
/// hashing.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricId RegisterCounter(const std::string& name);
  MetricId RegisterGauge(const std::string& name,
                         GaugeMode mode = GaugeMode::kMax);
  MetricId RegisterHistogram(const std::string& name);

  void Add(MetricId counter, uint64_t delta = 1) {
    if (counter >= 0 && static_cast<size_t>(counter) < counters_.size()) {
      counters_[counter].value += delta;
    }
  }
  void Set(MetricId gauge, double value);
  void Observe(MetricId histogram, double value) {
    if (histogram >= 0 &&
        static_cast<size_t>(histogram) < histograms_.size()) {
      histograms_[histogram].hist.Add(value);
    }
  }

  /// Register-and-set conveniences for end-of-run publication of values
  /// already accumulated elsewhere (stats structs). Duplicate names are
  /// rejected like the plain registrations.
  void PublishCounter(const std::string& name, uint64_t value) {
    Add(RegisterCounter(name), value);
  }
  void PublishGauge(const std::string& name, double value,
                    GaugeMode mode = GaugeMode::kMax) {
    Set(RegisterGauge(name, mode), value);
  }

  size_t CounterCount() const { return counters_.size(); }
  size_t GaugeCount() const { return gauges_.size(); }
  size_t HistogramCount() const { return histograms_.size(); }

  /// Freezes the registry into a name-sorted snapshot.
  MetricsSnapshot Snapshot() const;

  /// Human-readable reason for the most recent rejected registration
  /// ("duplicate metric \"x\": registered as counter, re-registered as
  /// gauge(max)"); empty after a successful registration.
  const std::string& last_error() const { return last_error_; }

 private:
  struct NameEntry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    GaugeMode gauge_mode = GaugeMode::kMax;  ///< Meaningful for kGauge only.
  };

  bool ClaimName(const std::string& name, MetricKind kind, GaugeMode mode);

  std::vector<MetricsSnapshot::Counter> counters_;
  std::vector<MetricsSnapshot::Gauge> gauges_;
  std::vector<MetricsSnapshot::Histogram> histograms_;
  std::vector<NameEntry> names_;  ///< Sorted; one namespace, all kinds.
  std::string last_error_;
};

}  // namespace diknn

#endif  // DIKNN_OBS_METRICS_REGISTRY_H_
