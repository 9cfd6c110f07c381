// Trace export: Chrome trace-event JSON (Perfetto / chrome://tracing),
// per-query critical-path summaries, span CSV for plotting, and the
// per-frame CSV log.
//
// Chrome trace mapping: each traced query is one "process" (pid =
// trace id) so Perfetto shows it as its own track group; within a query,
// tid 0 carries the sink-side spans (root / queue / route) and tid s+1
// carries sector s, so each sector's hop and collection slices nest on
// their own row. Point events are emitted as instant events on the same
// rows. The top-level object also carries a "criticalPaths" array
// (Perfetto ignores unknown keys) sorted slowest-first.
//
// When a flight recording is attached (set_timeseries), every series is
// exported as a Perfetto counter track (ph "C"): run-level series share
// one synthetic process ("timeseries", pid 1000000, far above any trace
// id) and each psim shard's diagnostics get their own process row
// ("timeseries shard K", pid 1000001+K), so shard health plots next to
// the query slices on the same timeline.

#ifndef DIKNN_OBS_TRACE_SINK_H_
#define DIKNN_OBS_TRACE_SINK_H_

#include <ostream>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "obs/tracer.h"

namespace diknn {

/// Phase attribution of one query's end-to-end latency. All figures in
/// seconds; phases overlap-free along the query's critical chain: the
/// admission queue, the bootstrap route, then — within the critical
/// (last-reporting) sector — collection windows, itinerary forwarding
/// (sector time not inside a hop), and the reply route; `sink_wait` is
/// whatever remains before completion (e.g. waiting on other sectors'
/// timeouts).
struct CriticalPath {
  TraceId trace_id = 0;
  double total = 0.0;
  double queue = 0.0;
  double route = 0.0;
  double collection = 0.0;
  double forwarding = 0.0;
  double reply_route = 0.0;
  double sink_wait = 0.0;
  int32_t critical_sector = -1;  ///< -1: no sector reported back.
  int hops = 0;                  ///< Q-node visits in the critical sector.

  /// Name of the largest phase ("collection", "forwarding", ...).
  const char* DominantPhase() const;
};

class TraceSink {
 public:
  explicit TraceSink(TraceData data);

  /// Attaches a flight recording (not owned; may be null) so
  /// WriteChromeTrace emits its series as Perfetto counter tracks. Must
  /// outlive the sink's export calls.
  void set_timeseries(const TimeSeriesSet* ts) { timeseries_ = ts; }

  /// Chrome trace-event JSON; loadable by Perfetto and chrome://tracing.
  void WriteChromeTrace(std::ostream& os) const;

  /// One row per span: trace,span,parent,kind,sector,node,start,end.
  void WriteCsv(std::ostream& os) const;

  /// The frame log: a "time,sender,x,y,type,bytes" header, then one row
  /// per transmitted frame in transmit order.
  void WriteFrameCsv(std::ostream& os) const;

  /// Per-query phase attribution, sorted slowest-first.
  const std::vector<CriticalPath>& critical_paths() const { return paths_; }

  /// The slowest `fraction` of queries (e.g. 0.01 for the p99 tail);
  /// always at least one entry when any query completed.
  std::vector<CriticalPath> TailCriticalPaths(double fraction) const;

  /// One-line human-readable report.
  static std::string FormatCriticalPath(const CriticalPath& path);

  const TraceData& data() const { return data_; }

 private:
  void ComputeCriticalPaths();

  TraceData data_;
  std::vector<CriticalPath> paths_;
  const TimeSeriesSet* timeseries_ = nullptr;
};

}  // namespace diknn

#endif  // DIKNN_OBS_TRACE_SINK_H_
