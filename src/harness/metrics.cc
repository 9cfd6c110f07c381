#include "harness/metrics.h"

#include <algorithm>

namespace diknn {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = static_cast<int>(values.size());
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / values.size();
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(var / (values.size() - 1))
                 : 0.0;
  return s;
}

std::vector<double> Percentiles(std::vector<double> values,
                                const std::vector<double>& ps) {
  if (values.empty()) return std::vector<double>(ps.size(), 0.0);
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * (values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - lo;
    out.push_back(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return out;
}

ExperimentMetrics AggregateRuns(const std::vector<RunMetrics>& runs) {
  ExperimentMetrics out;
  out.runs = static_cast<int>(runs.size());
  std::vector<double> lat, pre, post, energy, to_rate, goodput;
  for (const RunMetrics& r : runs) {
    if (r.slo.latency.Count() > 0) lat.push_back(r.slo.latency.Mean());
    pre.push_back(r.avg_pre_accuracy);
    post.push_back(r.avg_post_accuracy);
    energy.push_back(r.energy_joules);
    to_rate.push_back(r.slo.TimeoutRate());
    goodput.push_back(r.slo.GoodputQps());
    out.slo.Merge(r.slo);
    out.obs.Merge(r.obs);
  }
  out.latency = Summarize(lat);
  out.pre_accuracy = Summarize(pre);
  out.post_accuracy = Summarize(post);
  out.energy = Summarize(energy);
  out.timeout_rate = Summarize(to_rate);
  out.goodput = Summarize(goodput);
  if (!runs.empty()) out.ts = runs.front().ts;
  return out;
}

}  // namespace diknn
