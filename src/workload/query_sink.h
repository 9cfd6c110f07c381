// The query sink: where every workload query enters and leaves the
// network. DIKNN starts and ends each query at the sink s; this class is
// that sink's policy, written once for both engines — the serial
// QueryDriver and the sharded engine's sink (psim/query_plane.h) call it.
//
// It owns, in this order of a query's life:
//  - Admission: issued and per-class counts, the in-flight bound, the FIFO
//    waiting room, and rejection once the room is full.
//  - Launch through serving: when the spec enables a serving stage
//    (cache@ / coalesce@ / admit@shed), point-KNN launches route through
//    a ServingFrontEnd with their deadline budget. A shed query is
//    rejected; a cache hit resolves at once with zero protocol latency; a
//    follower parks until its leader resolves (docs/SERVING.md).
//  - Leader resolution: the front end hears the outcome first, then the
//    leader is scored, then its followers in attach order. A timed-out
//    leader times its followers out: they rode the same itinerary.
//  - Scoring, then promotion: the outcome and the latency histogram go
//    into the SloReport, then queued queries launch into the freed slots.
//  - End of run: queued queries are rejected; queries in flight and
//    parked followers time out; the serving counters are sealed.
//
// The sink is handed `now` and touches no Network or Simulator. What
// differs between engines comes in through the Engine callbacks (where
// the sink node is, how a query launches, what to record) and through the
// latency inputs: latency is queue wait plus the protocol latency the
// engine reports, so admission queueing counts against the SLO. Deadlines
// are accounting, not cancellation — the protocols have no abort path, so
// a late query still completes and is scored kDeadlineMissed.
//
// Steady state is allocation-free (a FlatMap of in-flight queries, a
// RingBuffer waiting room, a retained fan-out buffer), so the sharded
// engine's allocation gate covers the sink on its worker threads.

#ifndef DIKNN_WORKLOAD_QUERY_SINK_H_
#define DIKNN_WORKLOAD_QUERY_SINK_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/flat_map.h"
#include "core/ring_buffer.h"
#include "obs/tracer.h"
#include "serving/front_end.h"
#include "workload/latency_histogram.h"
#include "workload/query_sampler.h"
#include "workload/workload_spec.h"

namespace diknn {

class MetricsRegistry;

/// Outcome of one workload query, for tests and per-query analysis.
struct WorkloadQueryRecord {
  uint64_t id = 0;          ///< Engine-assigned arrival id.
  QueryClass cls = QueryClass::kKnn;
  SimTime arrived_at = 0.0;
  double queue_wait = 0.0;  ///< Seconds spent in the admission queue.
  double latency = 0.0;     ///< Arrival to resolution (0 if rejected).
  QueryOutcome outcome = QueryOutcome::kCompleted;
  /// How the serving front end handled the query (kDirect when serving
  /// is off or the query launched its own itinerary).
  ServingPath path = ServingPath::kDirect;
  double pre_accuracy = -1.0;   ///< Scored KNN queries only; -1 = unscored.
  double post_accuracy = -1.0;
};

/// One query at the sink, from arrival to outcome.
struct SinkQuery : SampledQuery {
  uint64_t id = 0;
  SimTime arrived_at = 0.0;
  SimTime launched_at = 0.0;  ///< When it left admission.
  ServingPath path = ServingPath::kDirect;
  Point sink_pos;             ///< Sink position at launch (serving only).
  TraceContext trace;         ///< Root context; unsampled when untraced.
  SpanId queue_span = 0;      ///< Open kQueue span while waiting.
};

class QuerySink {
 public:
  /// What an engine does for the sink. Called synchronously from
  /// Arrive(), Resolve() and Finalize().
  class Engine {
   public:
    /// Position of sink node `sink` at `now` (serving's cell ring).
    virtual Point SinkPosition(NodeId sink, SimTime now) = 0;
    /// `query` left admission at query.launched_at. Launch it on the
    /// protocol when query.path is kDirect and report the answer through
    /// Resolve(); the sink serves cache hits and followers itself.
    virtual void Launch(const SinkQuery& query) = 0;
    /// `query` was scored as `record`, before any queued query is
    /// promoted. `answer` is what it returned: the cache's candidates for
    /// a hit, its leader's (not re-pruned) for a follower, and nothing
    /// for a query that never launched or was pending at Finalize().
    virtual void Scored(const SinkQuery& /*query*/,
                        const WorkloadQueryRecord& /*record*/,
                        std::span<const KnnCandidate> /*answer*/) {}
    /// One resolution, promotion of queued queries included, is over.
    virtual void Settled() {}
  };

  /// `field`, `max_speed` (0 on static fields) and `radio_range` size the
  /// serving front end, built only when the spec enables one of its
  /// stages.
  QuerySink(const WorkloadSpec& spec, const Rect& field, double max_speed,
            double radio_range);

  /// Query tracer (not owned; may be null). The sink opens each query's
  /// root span at arrival, so admission queueing is a visible kQueue
  /// phase, records its serving events and closes the trace at its
  /// outcome.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Query `id` (unique per run) arrived at `arrived_at` and is handled
  /// at `now`: admitted and launched, queued, or rejected.
  void Arrive(uint64_t id, const SampledQuery& drawn, SimTime arrived_at,
              SimTime now, Engine& engine);

  /// Launched query `id` resolved after `protocol_latency` seconds on the
  /// protocol (or timed out), returning `answer`. Resolves its followers
  /// too, then promotes queued queries. Unknown ids (already finalized)
  /// are ignored.
  void Resolve(uint64_t id, double protocol_latency, bool timed_out,
               const std::vector<KnnCandidate>& answer, SimTime now,
               Engine& engine);

  /// End of run at `now`: queued queries are rejected, queries in flight
  /// (parked followers included) time out, in id order. Seals the report
  /// with the measured `duration` and the serving counters.
  void Finalize(SimTime now, SimTime duration, Engine& engine);

  const SloReport& report() const { return report_; }
  /// Queries in flight: launched queries and parked followers.
  int inflight() const { return static_cast<int>(inflight_.size()); }
  /// The serving front end, when the spec enables any of its stages.
  const ServingFrontEnd* serving() const {
    return front_end_.has_value() ? &*front_end_ : nullptr;
  }

 private:
  /// True while the in-flight bound admits another launch.
  bool HasRoom() const {
    return max_inflight_ <= 0 ||
           static_cast<int>(inflight_.size()) < max_inflight_;
  }
  void Launch(SinkQuery query, SimTime now, Engine& engine);
  /// Scores a query that never launched (or never will) as kRejected.
  void Reject(const SinkQuery& query, SimTime now, Engine& engine);
  /// Scores a resolved query, then promotes queued queries.
  void Score(const SinkQuery& query, double protocol_latency,
             bool timed_out, std::span<const KnnCandidate> answer,
             SimTime now, Engine& engine);
  void TraceEvent(const SinkQuery& query, TraceEventKind kind, SimTime now,
                  double value) const {
    if (query.trace.sampled()) {
      tracer_->AddEvent(query.trace, kind, now, -1, value);
    }
  }
  void CloseTrace(const SinkQuery& query, SimTime now) const {
    if (query.trace.sampled()) tracer_->CloseTrace(query.trace.trace_id, now);
  }

  int max_inflight_;
  int queue_capacity_;
  double deadline_;
  std::optional<ServingFrontEnd> front_end_;
  Tracer* tracer_ = nullptr;

  /// Launched queries and parked followers (a cache hit passes through).
  FlatMap<uint64_t, SinkQuery> inflight_;
  RingBuffer<SinkQuery> queue_;  ///< FIFO waiting room.
  /// A resolved leader's followers, held across its promotions.
  std::vector<QueryCoalescer::Follower> fanout_;
  SloReport report_;
};

/// Publishes a run's serving front-end counters as the serving.* rows
/// (all zero when the workload ran without a front end).
void PublishServingCounters(const ServingCounters& counters,
                            MetricsRegistry* reg);

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_QUERY_SINK_H_
