#include "workload/query_sink.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics_registry.h"

namespace diknn {

QuerySink::QuerySink(const WorkloadSpec& spec, const Rect& field,
                     double max_speed, double radio_range)
    : max_inflight_(spec.max_inflight),
      queue_capacity_(spec.queue_capacity),
      deadline_(spec.deadline) {
  if (spec.Serving().Enabled()) {
    front_end_.emplace(spec.Serving(), field, max_speed, radio_range);
  }
}

void QuerySink::Arrive(uint64_t id, const SampledQuery& drawn,
                       SimTime arrived_at, SimTime now, Engine& engine) {
  SinkQuery query;
  static_cast<SampledQuery&>(query) = drawn;
  query.id = id;
  query.arrived_at = arrived_at;
  ++report_.issued;
  ++report_.issued_by_class[static_cast<int>(query.cls)];
  if (tracer_ != nullptr) query.trace = tracer_->StartQuery(arrived_at);
  if (HasRoom()) {
    Launch(query, now, engine);
  } else if (static_cast<int>(queue_.size()) < queue_capacity_) {
    if (query.trace.sampled()) {
      query.queue_span = tracer_->BeginSpan(query.trace, SpanKind::kQueue,
                                            arrived_at, -1, query.sink);
    }
    queue_.push_back(query);
  } else {
    Reject(query, now, engine);
  }
}

void QuerySink::Launch(SinkQuery query, SimTime now, Engine& engine) {
  if (query.queue_span != 0) {
    tracer_->EndSpan(query.trace.trace_id, query.queue_span, now);
  }
  query.launched_at = now;

  // The front end only fronts point-KNN queries: the cache and the
  // coalescer both reason about a single query point.
  ServingFrontEnd::Decision decision;
  if (front_end_.has_value() && query.cls == QueryClass::kKnn) {
    query.sink_pos = engine.SinkPosition(query.sink, now);
    // Time left before the deadline; < 0 means the queue wait already ate
    // the whole budget, exactly 0 encodes "no deadline" (see Route()).
    const double budget =
        deadline_ > 0.0 ? query.arrived_at + deadline_ - now : 0.0;
    decision = front_end_->Route(query.id, query.q, query.sink_pos,
                                 static_cast<int>(query.cls), query.k,
                                 budget, now);
  }
  query.path = decision.path;
  if (query.path == ServingPath::kShed) {
    TraceEvent(query, TraceEventKind::kShed, now, decision.estimate);
    Reject(query, now, engine);
    return;
  }
  inflight_.InsertOrAssign(query.id, query);
  report_.peak_inflight =
      std::max<uint64_t>(report_.peak_inflight, inflight_.size());
  engine.Launch(query);
  if (query.path == ServingPath::kCacheHit) {
    // Answered from the cache: resolves synchronously, zero protocol
    // latency, no channel traffic.
    TraceEvent(query, TraceEventKind::kCacheHit, now,
               static_cast<double>(decision.candidates.size()));
    inflight_.erase(query.id);
    Score(query, 0.0, /*timed_out=*/false, decision.candidates, now,
          engine);
  } else if (query.path == ServingPath::kFollower) {
    // Parked on the leader's itinerary; Resolve() fans the leader's
    // answer back out when it completes (or times out).
    TraceEvent(query, TraceEventKind::kCoalesced, now,
               static_cast<double>(decision.leader));
  }
}

void QuerySink::Reject(const SinkQuery& query, SimTime now, Engine& engine) {
  ++report_.rejected;
  engine.Scored(query,
                {query.id, query.cls, query.arrived_at,
                 now - query.arrived_at, 0.0, QueryOutcome::kRejected,
                 query.path},
                {});
  CloseTrace(query, now);
}

void QuerySink::Resolve(uint64_t id, double protocol_latency, bool timed_out,
                        const std::vector<KnnCandidate>& answer, SimTime now,
                        Engine& engine) {
  const SinkQuery* found = inflight_.find(id);
  if (found == nullptr) return;  // Already finalized.
  const SinkQuery leader = *found;
  inflight_.erase(id);
  if (!front_end_.has_value() || leader.cls != QueryClass::kKnn) {
    Score(leader, protocol_latency, timed_out, answer, now, engine);
    return;
  }
  // Feed the front end FIRST: the cache entry it seeds and the leader
  // slot it frees must be visible to any queued query the leader's Score()
  // promotes. The follower list is taken out of fanout_ while it is
  // walked, because a promoted launch may resolve another leader
  // synchronously.
  std::vector<QueryCoalescer::Follower> followers = std::move(fanout_);
  AssignRetained(&followers,
                 front_end_->OnResolved(id, leader.q, leader.sink_pos,
                                        static_cast<int>(leader.cls),
                                        leader.k, answer, protocol_latency,
                                        timed_out, now));
  Score(leader, protocol_latency, timed_out, answer, now, engine);
  // Fan the leader's answer out, in attach order. A timed-out leader
  // times its followers out too — they rode the same itinerary — which
  // keeps issued == completed + missed + rejected + timed_out intact.
  for (const QueryCoalescer::Follower& f : followers) {
    const SinkQuery* parked = inflight_.find(f.ticket);
    if (parked == nullptr) continue;  // Already finalized.
    const SinkQuery follower = *parked;
    inflight_.erase(f.ticket);
    TraceEvent(follower, TraceEventKind::kFanOut, now,
               static_cast<double>(id));
    Score(follower, now - follower.launched_at, timed_out, answer, now,
          engine);
  }
  fanout_ = std::move(followers);
}

void QuerySink::Score(const SinkQuery& query, double protocol_latency,
                      bool timed_out, std::span<const KnnCandidate> answer,
                      SimTime now, Engine& engine) {
  const double queue_wait = query.launched_at - query.arrived_at;
  // An engine that quantizes arrivals to windows launches a query at the
  // start of the window it arrives in, which can precede the arrival by a
  // fraction of a window; such an instant answer has zero latency.
  const double latency = std::max(0.0, queue_wait + protocol_latency);
  QueryOutcome outcome = QueryOutcome::kCompleted;
  if (timed_out) {
    outcome = QueryOutcome::kTimedOut;
    ++report_.timed_out;
  } else {
    if (deadline_ > 0.0 && latency > deadline_) {
      outcome = QueryOutcome::kDeadlineMissed;
      ++report_.deadline_missed;
    } else {
      ++report_.completed;
    }
    report_.latency.Add(latency);
  }
  engine.Scored(query,
                {query.id, query.cls, query.arrived_at, queue_wait, latency,
                 outcome, query.path},
                answer);
  if (outcome == QueryOutcome::kDeadlineMissed) {
    TraceEvent(query, TraceEventKind::kDeadlineMissed, now, latency);
  }
  // Idempotent on top of the protocol's own CloseTrace (kKnn class); the
  // only closer for window / aggregate / continuous classes.
  CloseTrace(query, now);

  // Freed capacity: promote the longest-waiting queued queries.
  while (!queue_.empty() && HasRoom()) {
    SinkQuery next = std::move(queue_.front());
    queue_.pop_front();
    Launch(std::move(next), now, engine);
  }
  engine.Settled();
}

void QuerySink::Finalize(SimTime now, SimTime duration, Engine& engine) {
  // Still queued: never launched, so they score as rejections.
  for (; !queue_.empty(); queue_.pop_front()) {
    Reject(queue_.front(), now, engine);
  }
  // Still in flight: unresolved, so they score as timeouts. Sorted by id
  // so the outcome order is platform-independent.
  std::vector<SinkQuery> pending;
  pending.reserve(inflight_.size());
  inflight_.ForEach(
      [&pending](uint64_t, const SinkQuery& q) { pending.push_back(q); });
  std::sort(pending.begin(), pending.end(),
            [](const SinkQuery& a, const SinkQuery& b) { return a.id < b.id; });
  for (const SinkQuery& query : pending) {
    ++report_.timed_out;
    engine.Scored(query,
                  {query.id, query.cls, query.arrived_at,
                   query.launched_at - query.arrived_at,
                   now - query.arrived_at, QueryOutcome::kTimedOut,
                   query.path},
                  {});
    CloseTrace(query, now);
  }
  inflight_.clear();
  report_.duration = duration;
  if (front_end_.has_value()) report_.serving = front_end_->counters();
  assert(report_.Consistent());
}

void PublishServingCounters(const ServingCounters& counters,
                            MetricsRegistry* reg) {
  reg->PublishCounter("serving.cache_hits", counters.cache_hits);
  reg->PublishCounter("serving.cache_misses", counters.cache_misses);
  reg->PublishCounter("serving.cache_expired", counters.cache_expired);
  reg->PublishCounter("serving.cache_insertions", counters.cache_insertions);
  reg->PublishCounter("serving.coalesced", counters.coalesced);
  reg->PublishCounter("serving.fanned_out", counters.fanned_out);
  reg->PublishCounter("serving.shed", counters.shed);
  reg->PublishCounter("serving.shed_probes", counters.shed_probes);
}

}  // namespace diknn
