#include "workload/latency_histogram.h"

#include <algorithm>
#include <sstream>

namespace diknn {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kDeadlineMissed:
      return "deadline_missed";
    case QueryOutcome::kRejected:
      return "rejected";
    case QueryOutcome::kTimedOut:
      return "timed_out";
  }
  return "?";
}

void SloReport::Merge(const SloReport& other) {
  issued += other.issued;
  completed += other.completed;
  deadline_missed += other.deadline_missed;
  rejected += other.rejected;
  timed_out += other.timed_out;
  for (int c = 0; c < kNumQueryClasses; ++c) {
    issued_by_class[c] += other.issued_by_class[c];
  }
  peak_inflight = std::max(peak_inflight, other.peak_inflight);
  duration += other.duration;
  latency.Merge(other.latency);
  serving.Merge(other.serving);
}

std::string SloReport::Format() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "issued=" << issued << " goodput=" << GoodputQps() << "q/s"
     << " p50=" << p50() << "s p95=" << p95() << "s p99=" << p99() << "s"
     << " miss=" << 100.0 * MissRate() << "%"
     << " reject=" << 100.0 * RejectRate() << "%"
     << " timeout=" << 100.0 * TimeoutRate() << "%"
     << " peak_inflight=" << peak_inflight;
  if (serving.Any()) {
    os << " cache=" << serving.cache_hits << '/'
       << (serving.cache_hits + serving.cache_misses)
       << " coalesced=" << serving.coalesced << " shed=" << serving.shed;
  }
  return os.str();
}

std::string SloReport::ToJson() const {
  std::ostringstream os;
  os << "{\"issued\": " << issued << ", \"completed\": " << completed
     << ", \"deadline_missed\": " << deadline_missed
     << ", \"rejected\": " << rejected << ", \"timed_out\": " << timed_out
     << ", \"peak_inflight\": " << peak_inflight
     << ", \"goodput_qps\": " << GoodputQps()
     << ", \"mean_s\": " << latency.Mean() << ", \"p50_s\": " << p50()
     << ", \"p95_s\": " << p95() << ", \"p99_s\": " << p99()
     << ", \"p999_s\": " << p999() << ", \"miss_rate\": " << MissRate()
     << ", \"reject_rate\": " << RejectRate()
     << ", \"timeout_rate\": " << TimeoutRate()
     << ", \"cache_hits\": " << serving.cache_hits
     << ", \"cache_misses\": " << serving.cache_misses
     << ", \"cache_insertions\": " << serving.cache_insertions
     << ", \"coalesced\": " << serving.coalesced
     << ", \"fanned_out\": " << serving.fanned_out
     << ", \"shed\": " << serving.shed << "}";
  return os.str();
}

}  // namespace diknn
