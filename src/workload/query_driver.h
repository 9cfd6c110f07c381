// The query-serving workload engine.
//
// A QueryDriver replays a WorkloadSpec against an installed protocol
// stack: it generates arrivals (open-loop Poisson / fixed-rate, or
// closed-loop sessions), draws each query's class / k / location from the
// spec's distributions, applies admission control (reject or queue once
// the in-flight bound is hit), tracks every in-flight query against its
// deadline, and scores each one into an SloReport. Everything runs inside
// the simulator's event loop; the same spec + seed is bit-identical on
// every machine and at any harness --jobs count.
//
// Semantics worth knowing:
//  - Latency is arrival-to-resolution, so admission queueing counts
//    against the SLO (as it does in a real serving stack).
//  - Deadlines are accounting, not cancellation: the protocols have no
//    abort path (messages already in the air cannot be recalled), so a
//    late query still completes and is scored kDeadlineMissed.
//  - A continuous subscription is one issued unit that resolves when its
//    last round completes; its recorded latency is that round's snapshot
//    latency plus any queue wait.
//  - At the end of Run(), queries still queued are scored kRejected and
//    queries still in flight kTimedOut, so the outcome partition always
//    sums to the issued count.
//  - When the spec enables serving stages (cache@ / coalesce@ /
//    admit@shed), point-KNN launches route through a ServingFrontEnd
//    first: cache hits resolve synchronously with zero protocol latency,
//    followers park until their leader's itinerary completes (inheriting
//    its timeout, answer re-pruned around their own q), and shed queries
//    score as kRejected (docs/SERVING.md).

#ifndef DIKNN_WORKLOAD_QUERY_DRIVER_H_
#define DIKNN_WORKLOAD_QUERY_DRIVER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "knn/aggregate.h"
#include "knn/continuous.h"
#include "knn/query.h"
#include "knn/window.h"
#include "net/network.h"
#include "net/sensor_field.h"
#include "routing/gpsr.h"
#include "serving/front_end.h"
#include "workload/latency_histogram.h"
#include "workload/query_sampler.h"
#include "workload/workload_spec.h"

namespace diknn {

/// Outcome of one workload query, for tests and per-query analysis.
struct WorkloadQueryRecord {
  uint64_t id = 0;          ///< Driver-assigned arrival sequence number.
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

/// Drives a WorkloadSpec against a protocol stack.
class QueryDriver {
 public:
  /// `network`, `gpsr` and `protocol` must outlive the driver, and the
  /// protocol (plus GPSR) must already be installed. `sink` issues every
  /// query; pass kInvalidNodeId to draw a random sink per query. The
  /// driver installs its own window / aggregate / continuous engines
  /// when the spec's mix needs them.
  QueryDriver(Network* network, GpsrRouting* gpsr, KnnProtocol* protocol,
              const WorkloadSpec& spec, uint64_t seed, NodeId sink = 0);

  /// Issues arrivals for `duration` simulated seconds, then runs `drain`
  /// more to let stragglers resolve, finalizes the report (queued ->
  /// rejected, still-in-flight -> timed out) and returns it. Call once.
  SloReport Run(SimTime duration, SimTime drain);

  /// Score KNN-class queries against the ground-truth oracle (default
  /// on). Costs one TrueKnn scan at issue and one at resolution.
  void set_score_accuracy(bool score) { score_accuracy_ = score; }

  /// Query tracer (not owned; may be null). The driver opens the root
  /// span at arrival (so admission queueing is a visible kQueue phase),
  /// hands the context to kKnn protocol launches via the tracer's
  /// ambient scope, and closes the trace at resolution.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const SloReport& report() const { return report_; }
  /// Queries currently in flight (live; the flight recorder samples it).
  int inflight_count() const { return inflight_count_; }
  const std::vector<WorkloadQueryRecord>& records() const {
    return records_;
  }
  const WorkloadSpec& spec() const { return spec_; }

  /// Mean accuracies over the scored KNN queries (0 when none).
  double MeanPreAccuracy() const;
  double MeanPostAccuracy() const;

  /// The driver-owned engines, when the mix constructed them (else
  /// nullptr). Exposed so tests can assert their per-query state drained.
  const ItineraryWindowQuery* window_engine() const { return window_.get(); }
  const ItineraryAggregateQuery* aggregate_engine() const {
    return aggregate_.get();
  }
  const ContinuousKnn* continuous_engine() const {
    return continuous_.get();
  }

  /// The serving front end, when the spec enables any of its stages
  /// (cache@ / coalesce@ / admit@shed), else nullptr.
  const ServingFrontEnd* serving() const { return serving_.get(); }

 private:
  /// A drawn-but-not-yet-launched query.
  struct Prepared : SampledQuery {
    uint64_t id = 0;
    SimTime arrived_at = 0.0;
    TraceContext trace;      ///< Root context; unsampled when not traced.
    SpanId queue_span = 0;   ///< Open kQueue span while waiting.
  };

  /// Book-keeping for a launched query.
  struct Inflight {
    QueryClass cls = QueryClass::kKnn;
    SimTime arrived_at = 0.0;
    SimTime launched_at = 0.0;
    double queue_wait = 0.0;
    std::vector<NodeId> truth_pre;  ///< Scored KNN queries only.
    Point q;
    int k = 0;
    Point sink_pos;  ///< Sink position at launch (serving ring lookup).
    ServingPath path = ServingPath::kDirect;
    TraceContext trace;
  };

  Prepared Draw();
  Rect QueryRect(const Point& center, double side) const;
  double BoundaryRadius(int k) const;

  void Admit(Prepared prep);
  void Launch(Prepared prep);
  void Resolve(uint64_t id, double protocol_latency, bool timed_out,
               std::vector<NodeId> returned = {});
  /// Completion handler for protocol-launched kKnn queries: feeds the
  /// serving front end, resolves the leader, then fans the answer out to
  /// its coalesced followers (in attach order).
  void ResolveKnnLeader(uint64_t id, const KnnResult& result);
  /// Records a shed query as kRejected (path kShed) without launching.
  void Shed(const Prepared& prep, double estimate);
  void ScheduleNextArrival();
  void StartSession();
  void Finalize();

  Network* network_;
  GpsrRouting* gpsr_;
  KnnProtocol* protocol_;
  WorkloadSpec spec_;
  QuerySampler sampler_;
  bool score_accuracy_ = true;
  Tracer* tracer_ = nullptr;

  // Lazily constructed engines (only when the mix uses them).
  std::unique_ptr<ItineraryWindowQuery> window_;
  std::unique_ptr<SensorField> field_;
  std::unique_ptr<ItineraryAggregateQuery> aggregate_;
  std::unique_ptr<ContinuousKnn> continuous_;
  std::unique_ptr<ServingFrontEnd> serving_;

  SimTime end_time_ = 0.0;   ///< Arrivals stop here.
  bool finalized_ = false;
  uint64_t next_id_ = 1;
  int inflight_count_ = 0;
  std::unordered_map<uint64_t, Inflight> inflight_;
  std::deque<Prepared> queue_;
  std::vector<WorkloadQueryRecord> records_;
  SloReport report_;
};

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_QUERY_DRIVER_H_
