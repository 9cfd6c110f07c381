// The query-serving workload engine of the serial stack.
//
// A QueryDriver replays a WorkloadSpec against an installed protocol
// stack: it generates arrivals (open-loop Poisson / fixed-rate, or
// closed-loop sessions), draws each query's class / k / location from the
// spec's distributions, and hands every arrival to the QuerySink, which
// admits, serves, resolves and scores it into an SloReport
// (workload/query_sink.h). The driver keeps what only the serial engine
// has: the arrival events and sessions, the per-class launch on the
// protocol or the window / aggregate / continuous engines, and the
// ground-truth accuracy of every scored KNN answer. Everything runs inside
// the simulator's event loop; the same spec + seed is bit-identical on
// every machine and at any harness --jobs count.
//
// Semantics worth knowing (the rest is the sink's, see query_sink.h):
//  - A continuous subscription is one issued unit that resolves when its
//    last round completes; its recorded latency is that round's snapshot
//    latency plus any queue wait.
//  - Accuracy is scored against the true KNN at launch (pre) and at
//    resolution (post); a coalesced follower's answer is its leader's,
//    re-pruned around its own q and truncated to its own k.

#ifndef DIKNN_WORKLOAD_QUERY_DRIVER_H_
#define DIKNN_WORKLOAD_QUERY_DRIVER_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "knn/aggregate.h"
#include "knn/continuous.h"
#include "knn/query.h"
#include "knn/window.h"
#include "net/network.h"
#include "net/sensor_field.h"
#include "routing/gpsr.h"
#include "workload/query_sampler.h"
#include "workload/query_sink.h"
#include "workload/workload_spec.h"

namespace diknn {

/// Drives a WorkloadSpec against a protocol stack.
class QueryDriver : private QuerySink::Engine {
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

  /// Query tracer (not owned; may be null). The sink opens the root span
  /// at arrival (so admission queueing is a visible kQueue phase) and
  /// closes the trace at resolution; the driver hands the context to kKnn
  /// protocol launches via the tracer's ambient scope.
  void set_tracer(Tracer* tracer) { sink_.set_tracer(tracer); }

  const SloReport& report() const { return sink_.report(); }
  /// Queries currently in flight (live; the flight recorder samples it).
  int inflight_count() const { return sink_.inflight(); }
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
  const ServingFrontEnd* serving() const { return sink_.serving(); }

 private:
  Rect QueryRect(const Point& center, double side) const;
  double BoundaryRadius(int k) const;

  // QuerySink::Engine.
  Point SinkPosition(NodeId sink, SimTime now) override;
  /// Takes the pre-accuracy truth of scored KNN queries, then launches
  /// direct queries on the protocol or the class's engine.
  void Launch(const SinkQuery& query) override;
  /// Scores accuracy and records the outcome.
  void Scored(const SinkQuery& query, const WorkloadQueryRecord& record,
              std::span<const KnnCandidate> answer) override;
  /// Re-arms the closed-loop session the resolution ended.
  void Settled() override;

  /// Draws the next query and hands it to the sink.
  void Arrive();
  void ScheduleNextArrival();
  void StartSession();

  Network* network_;
  GpsrRouting* gpsr_;
  KnnProtocol* protocol_;
  WorkloadSpec spec_;
  QuerySampler sampler_;
  bool score_accuracy_ = true;

  // Lazily constructed engines (only when the mix uses them).
  std::unique_ptr<ItineraryWindowQuery> window_;
  std::unique_ptr<SensorField> field_;
  std::unique_ptr<ItineraryAggregateQuery> aggregate_;
  std::unique_ptr<ContinuousKnn> continuous_;

  QuerySink sink_;
  SimTime end_time_ = 0.0;   ///< Arrivals stop here.
  bool finalized_ = false;
  uint64_t next_id_ = 1;
  /// True KNN at launch, per scored KNN query still in flight.
  std::unordered_map<uint64_t, std::vector<NodeId>> truth_pre_;
  std::vector<WorkloadQueryRecord> records_;
};

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_QUERY_DRIVER_H_
