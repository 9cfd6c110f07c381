// The query-admission front end: the serving layer between the workload
// driver and the KNN protocol.
//
// Three cooperating stages, each individually optional (see
// ServingParams / the cache@, coalesce@ and admit@shed spec clauses):
//
//   1. Result cache — answers a query from a still-valid previous answer
//      for the same (cache cell, class) without touching the channel.
//   2. Query coalescing — attaches a query to a co-located in-flight
//      leader; the leader's answer fans back out on completion.
//   3. Deadline-aware admission — sheds queries whose predicted
//      completion time (per-cell-ring EWMA of observed latencies)
//      already exceeds their deadline, instead of burning airtime.
//
// The front end is pure bookkeeping over the engine's deterministic event
// order: it never draws randomness, schedules events, or touches the
// network, so any run through it is bit-identical at any --jobs count,
// traced or untraced. Its one caller is the QuerySink both engines share
// (workload/query_sink.h), which keeps the SLO accounting and has its
// engine launch and resolve queries; Route() and OnResolved() just tell
// the sink what to do. Steady state is allocation-free
// (flat tables, entries and follower lists recycled in place, answers in
// reusable buffers), so the sharded engine's allocation gate covers it.

#ifndef DIKNN_SERVING_FRONT_END_H_
#define DIKNN_SERVING_FRONT_END_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/geometry.h"
#include "knn/query.h"
#include "serving/admission.h"
#include "serving/coalescer.h"
#include "serving/result_cache.h"
#include "serving/serving_types.h"

namespace diknn {

class ServingFrontEnd {
 public:
  /// `field`, `max_speed` and `radio_range` come from the network config;
  /// they size the cache grid and derive the validity time T.
  ServingFrontEnd(const ServingParams& params, const Rect& field,
                  double max_speed, double radio_range);

  /// How the sink should serve one arriving point-KNN query: kDirect
  /// launches it on the protocol (registered as a leader), kCacheHit
  /// resolves it now with `candidates`, kFollower parks it until `leader`
  /// resolves, kShed rejects it (predicted completion misses the
  /// deadline).
  struct Decision {
    ServingPath path = ServingPath::kDirect;
    /// kCacheHit only: views the cache's answer buffer, valid until the
    /// next Route().
    std::span<const KnnCandidate> candidates;
    uint64_t leader = 0;    ///< kFollower only.
    double estimate = 0.0;  ///< kShed: predicted latency (s).
  };

  /// Routes query `ticket` (point `q`, issued at a sink currently at
  /// `sink_pos`) through cache -> coalesce -> admission. `budget` is the
  /// time remaining before the query's deadline: > 0 runs the predictive
  /// shed check, < 0 sheds outright (the deadline already passed while
  /// the query queued), and exactly 0 means "no deadline". On kDirect
  /// the ticket is registered as the coalesce leader for its cell.
  Decision Route(uint64_t ticket, const Point& q, const Point& sink_pos,
                 int cls, int k, double budget, SimTime now);

  /// A protocol-launched query resolved. Feeds the completion predictor,
  /// seeds the cache (successful completions only), and returns the
  /// followers to fan the answer out to, in attach order (a reusable
  /// buffer, valid until the next OnResolved()).
  const std::vector<QueryCoalescer::Follower>& OnResolved(
      uint64_t ticket, const Point& q, const Point& sink_pos, int cls, int k,
      const std::vector<KnnCandidate>& candidates, double protocol_latency,
      bool timed_out, SimTime now);

  const ServingCounters& counters() const { return counters_; }

  /// Chebyshev cell distance between `q`'s cell and the sink's cell.
  int RingOf(const Point& q, const Point& sink_pos) const;

 private:
  ServingParams params_;
  ResultCache cache_;
  QueryCoalescer coalescer_;
  CompletionPredictor predictor_;
  ServingCounters counters_;
};

}  // namespace diknn

#endif  // DIKNN_SERVING_FRONT_END_H_
