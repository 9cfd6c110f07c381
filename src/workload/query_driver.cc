#include "workload/query_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/tracer.h"

namespace diknn {

QueryDriver::QueryDriver(Network* network, GpsrRouting* gpsr,
                         KnnProtocol* protocol, const WorkloadSpec& spec,
                         uint64_t seed, NodeId sink)
    : network_(network),
      gpsr_(gpsr),
      protocol_(protocol),
      spec_(spec),
      sampler_(spec, network->config().field, network->config().node_count,
               seed, sink) {
  const auto weight = [&](QueryClass c) {
    return spec_.mix[static_cast<int>(c)];
  };
  if (weight(QueryClass::kWindow) > 0.0 ||
      weight(QueryClass::kKnnBoundary) > 0.0) {
    window_ = std::make_unique<ItineraryWindowQuery>(network_, gpsr_);
    window_->Install();
  }
  if (weight(QueryClass::kAggregate) > 0.0) {
    field_ = std::make_unique<SensorField>(SensorField::Random(
        network_->config().field, /*count=*/3, /*amplitude=*/25.0,
        /*sigma=*/20.0, /*max_drift=*/2.0, seed ^ 0x5eedf1e1dULL));
    aggregate_ = std::make_unique<ItineraryAggregateQuery>(network_, gpsr_,
                                                           field_.get());
    aggregate_->Install();
  }
  if (weight(QueryClass::kContinuous) > 0.0) {
    continuous_ = std::make_unique<ContinuousKnn>(network_, protocol_);
  }
  const ServingParams serving_params = spec_.Serving();
  if (serving_params.Enabled()) {
    // Static fields have zero drift, so the cache validity time is only
    // capped by the spec's ttl there.
    const double max_speed =
        network_->config().mobility == MobilityKind::kStatic
            ? 0.0
            : network_->config().max_speed;
    serving_ = std::make_unique<ServingFrontEnd>(
        serving_params, network_->config().field, max_speed,
        network_->config().radio_range_m);
  }
}

double QueryDriver::MeanPreAccuracy() const {
  double sum = 0.0;
  int n = 0;
  for (const WorkloadQueryRecord& r : records_) {
    if (r.pre_accuracy >= 0.0) {
      sum += r.pre_accuracy;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

double QueryDriver::MeanPostAccuracy() const {
  double sum = 0.0;
  int n = 0;
  for (const WorkloadQueryRecord& r : records_) {
    if (r.post_accuracy >= 0.0) {
      sum += r.post_accuracy;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

Rect QueryDriver::QueryRect(const Point& center, double side) const {
  const Rect& field = network_->config().field;
  const double h = side / 2.0;
  // Clamping may shrink windows at the field edge; that matches a real
  // deployment, where a query region never extends past the fence.
  return Rect{field.Clamp({center.x - h, center.y - h}),
              field.Clamp({center.x + h, center.y + h})};
}

double QueryDriver::BoundaryRadius(int k) const {
  // Uniform-density estimate of the KNN boundary (the same first-cut
  // estimate KNNB starts from): k = pi * R^2 * (n / area).
  const double area = network_->config().field.Area();
  const int n = std::max(1, network_->size());
  return std::sqrt(k * area / (kPi * n));
}

QueryDriver::Prepared QueryDriver::Draw() {
  Prepared prep;
  static_cast<SampledQuery&>(prep) = sampler_.Next();
  prep.id = next_id_++;
  prep.arrived_at = network_->sim().Now();
  return prep;
}

void QueryDriver::Admit(Prepared prep) {
  ++report_.issued;
  ++report_.issued_by_class[static_cast<int>(prep.cls)];
  if (tracer_ != nullptr) {
    prep.trace = tracer_->StartQuery(prep.arrived_at);
  }
  if (spec_.max_inflight > 0 && inflight_count_ >= spec_.max_inflight) {
    if (static_cast<int>(queue_.size()) < spec_.queue_capacity) {
      if (prep.trace.sampled()) {
        prep.queue_span =
            tracer_->BeginSpan(prep.trace, SpanKind::kQueue,
                               prep.arrived_at, -1, prep.sink);
      }
      queue_.push_back(std::move(prep));
    } else {
      WorkloadQueryRecord rec;
      rec.id = prep.id;
      rec.cls = prep.cls;
      rec.arrived_at = prep.arrived_at;
      rec.outcome = QueryOutcome::kRejected;
      records_.push_back(rec);
      ++report_.rejected;
      if (prep.trace.sampled()) {
        tracer_->CloseTrace(prep.trace.trace_id, prep.arrived_at);
      }
    }
    return;
  }
  Launch(std::move(prep));
}

void QueryDriver::Launch(Prepared prep) {
  const uint64_t id = prep.id;
  const SimTime now = network_->sim().Now();
  if (prep.queue_span != 0) {
    tracer_->EndSpan(prep.trace.trace_id, prep.queue_span, now);
  }

  // The serving front end only fronts point-KNN queries: the cache and
  // the coalescer both reason about a single query point.
  ServingFrontEnd::Decision decision;
  Point sink_pos;
  if (serving_ != nullptr && prep.cls == QueryClass::kKnn) {
    sink_pos = network_->node(prep.sink)->Position();
    // Time left before the deadline; < 0 means the queue wait already ate
    // the whole budget, exactly 0 encodes "no deadline" (see Route()).
    const double budget =
        spec_.deadline > 0.0 ? prep.arrived_at + spec_.deadline - now : 0.0;
    decision = serving_->Route(id, prep.q, sink_pos,
                               static_cast<int>(prep.cls), prep.k, budget,
                               now);
    if (decision.action == ServingFrontEnd::Decision::Action::kShed) {
      Shed(prep, decision.estimate);
      return;
    }
  }

  Inflight info;
  info.cls = prep.cls;
  info.arrived_at = prep.arrived_at;
  info.launched_at = now;
  info.queue_wait = now - prep.arrived_at;
  info.q = prep.q;
  info.k = prep.k;
  info.sink_pos = sink_pos;
  info.trace = prep.trace;
  if (prep.cls == QueryClass::kKnn && score_accuracy_) {
    info.truth_pre = network_->TrueKnn(prep.q, prep.k);
  }
  inflight_.emplace(id, std::move(info));
  ++inflight_count_;
  report_.peak_inflight = std::max(report_.peak_inflight,
                                   static_cast<uint64_t>(inflight_count_));

  switch (prep.cls) {
    case QueryClass::kKnn: {
      using Action = ServingFrontEnd::Decision::Action;
      if (decision.action == Action::kCacheHit) {
        // Answered from the cache: resolves synchronously, zero protocol
        // latency, no channel traffic.
        inflight_.at(id).path = ServingPath::kCacheHit;
        if (prep.trace.sampled()) {
          tracer_->AddEvent(prep.trace, TraceEventKind::kCacheHit, now, -1,
                            static_cast<double>(decision.candidates.size()));
        }
        std::vector<NodeId> ids;
        ids.reserve(decision.candidates.size());
        for (const KnnCandidate& c : decision.candidates) ids.push_back(c.id);
        Resolve(id, 0.0, false, std::move(ids));
        break;
      }
      if (decision.action == Action::kFollower) {
        // Parked on the leader's itinerary; ResolveKnnLeader fans the
        // answer back out when the leader completes (or times out).
        inflight_.at(id).path = ServingPath::kFollower;
        if (prep.trace.sampled()) {
          tracer_->AddEvent(prep.trace, TraceEventKind::kCoalesced, now, -1,
                            static_cast<double>(decision.leader));
        }
        break;
      }
      // Hand the root context to the protocol for the duration of the
      // launch call: its IssueQuery adopts the ambient trace instead of
      // starting a second one, so protocol phases nest under this root.
      Tracer::AmbientScope ambient(prep.trace.sampled() ? tracer_ : nullptr,
                                   prep.trace);
      protocol_->IssueQuery(prep.sink, prep.q, prep.k,
                            [this, id](const KnnResult& result) {
                              ResolveKnnLeader(id, result);
                            });
      break;
    }
    case QueryClass::kKnnBoundary:
      // Range query over the estimated KNN boundary of q: the square
      // circumscribing the radius-R disk that should hold ~k nodes.
      window_->IssueQuery(prep.sink,
                          QueryRect(prep.q, 2.0 * BoundaryRadius(prep.k)),
                          [this, id](const WindowResult& result) {
                            Resolve(id, result.Latency(), result.timed_out);
                          });
      break;
    case QueryClass::kWindow:
      window_->IssueQuery(prep.sink, QueryRect(prep.q, spec_.window_side),
                          [this, id](const WindowResult& result) {
                            Resolve(id, result.Latency(), result.timed_out);
                          });
      break;
    case QueryClass::kContinuous:
      continuous_->Subscribe(
          prep.sink, prep.q, prep.k, spec_.continuous_period,
          spec_.continuous_rounds, [this, id](const KnnUpdate& update) {
            // The subscription resolves when its last round completes;
            // earlier rounds are progress, not resolution.
            if (update.round + 1 >= spec_.continuous_rounds) {
              Resolve(id, update.result.Latency(), update.result.timed_out);
            }
          });
      break;
    case QueryClass::kAggregate:
      aggregate_->IssueQuery(prep.sink, QueryRect(prep.q, spec_.window_side),
                             [this, id](const AggregateResult& result) {
                               Resolve(id, result.Latency(), result.timed_out);
                             });
      break;
  }
}

void QueryDriver::Shed(const Prepared& prep, double estimate) {
  const SimTime now = network_->sim().Now();
  WorkloadQueryRecord rec;
  rec.id = prep.id;
  rec.cls = prep.cls;
  rec.arrived_at = prep.arrived_at;
  rec.queue_wait = now - prep.arrived_at;
  rec.outcome = QueryOutcome::kRejected;
  rec.path = ServingPath::kShed;
  records_.push_back(rec);
  ++report_.rejected;
  if (prep.trace.sampled()) {
    tracer_->AddEvent(prep.trace, TraceEventKind::kShed, now, -1, estimate);
    tracer_->CloseTrace(prep.trace.trace_id, now);
  }
}

void QueryDriver::ResolveKnnLeader(uint64_t id, const KnnResult& result) {
  if (serving_ == nullptr) {
    Resolve(id, result.Latency(), result.timed_out, result.CandidateIds());
    return;
  }
  const SimTime now = network_->sim().Now();
  // Snapshot the leader's geometry before Resolve() erases it, then feed
  // the front end FIRST: the cache entry it seeds and the leader slot it
  // frees must be visible to any queued query promoted by Resolve().
  std::vector<QueryCoalescer::Follower> followers;
  const auto it = inflight_.find(id);
  if (it != inflight_.end()) {
    const Inflight& leader = it->second;
    followers = serving_->OnResolved(
        id, leader.q, leader.sink_pos, static_cast<int>(leader.cls),
        leader.k, result.candidates, result.Latency(), result.timed_out, now);
  }
  Resolve(id, result.Latency(), result.timed_out, result.CandidateIds());
  // Fan the leader's answer out: each follower gets the superset
  // re-pruned around its own query point, truncated to its own k. A
  // timed-out leader times its followers out too — they rode the same
  // itinerary — which keeps issued == completed + missed + rejected +
  // timed_out intact.
  for (const QueryCoalescer::Follower& f : followers) {
    const auto fit = inflight_.find(f.ticket);
    if (fit == inflight_.end()) continue;  // Already finalized.
    std::vector<KnnCandidate> pruned = result.candidates;
    PruneCandidates(&pruned, fit->second.q, static_cast<size_t>(f.k));
    std::vector<NodeId> ids;
    ids.reserve(pruned.size());
    for (const KnnCandidate& c : pruned) ids.push_back(c.id);
    if (fit->second.trace.sampled()) {
      tracer_->AddEvent(fit->second.trace, TraceEventKind::kFanOut, now, -1,
                        static_cast<double>(id));
    }
    Resolve(f.ticket, now - fit->second.launched_at, result.timed_out,
            std::move(ids));
  }
}

void QueryDriver::Resolve(uint64_t id, double protocol_latency,
                          bool timed_out, std::vector<NodeId> returned) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;  // Already finalized.
  const Inflight info = std::move(it->second);
  inflight_.erase(it);
  --inflight_count_;

  WorkloadQueryRecord rec;
  rec.id = id;
  rec.cls = info.cls;
  rec.arrived_at = info.arrived_at;
  rec.queue_wait = info.queue_wait;
  rec.latency = info.queue_wait + protocol_latency;
  rec.path = info.path;
  if (timed_out) {
    rec.outcome = QueryOutcome::kTimedOut;
    ++report_.timed_out;
  } else if (spec_.deadline > 0.0 && rec.latency > spec_.deadline) {
    rec.outcome = QueryOutcome::kDeadlineMissed;
    ++report_.deadline_missed;
    report_.latency.Add(rec.latency);
  } else {
    rec.outcome = QueryOutcome::kCompleted;
    ++report_.completed;
    report_.latency.Add(rec.latency);
  }
  if (!info.truth_pre.empty()) {
    rec.pre_accuracy = Accuracy(returned, info.truth_pre);
    rec.post_accuracy =
        Accuracy(returned, network_->TrueKnn(info.q, info.k));
  }
  if (info.trace.sampled()) {
    const SimTime tnow = network_->sim().Now();
    if (rec.outcome == QueryOutcome::kDeadlineMissed) {
      tracer_->AddEvent(info.trace, TraceEventKind::kDeadlineMissed, tnow,
                        -1, rec.latency);
    }
    // Idempotent on top of the protocol's own CloseTrace (kKnn class);
    // the only closer for window / aggregate / continuous classes.
    tracer_->CloseTrace(info.trace.trace_id, tnow);
  }
  records_.push_back(rec);

  // Freed capacity: promote the longest-waiting queued query.
  while (!queue_.empty() &&
         (spec_.max_inflight == 0 || inflight_count_ < spec_.max_inflight)) {
    Prepared next = std::move(queue_.front());
    queue_.pop_front();
    Launch(std::move(next));
  }

  if (spec_.arrival == ArrivalKind::kClosedLoop && !finalized_) {
    network_->sim().ScheduleAfter(spec_.think_time,
                                  [this] { StartSession(); });
  }
}

void QueryDriver::ScheduleNextArrival() {
  const SimTime t = network_->sim().Now() + sampler_.NextInterval();
  if (t >= end_time_) return;
  network_->sim().ScheduleAt(t, [this] {
    Admit(Draw());
    ScheduleNextArrival();
  });
}

void QueryDriver::StartSession() {
  if (finalized_ || network_->sim().Now() >= end_time_) return;
  Admit(Draw());
}

void QueryDriver::Finalize() {
  finalized_ = true;
  const SimTime now = network_->sim().Now();
  // Still queued: never launched, so they score as rejections.
  for (const Prepared& prep : queue_) {
    WorkloadQueryRecord rec;
    rec.id = prep.id;
    rec.cls = prep.cls;
    rec.arrived_at = prep.arrived_at;
    rec.queue_wait = now - prep.arrived_at;
    rec.outcome = QueryOutcome::kRejected;
    records_.push_back(rec);
    ++report_.rejected;
    if (prep.trace.sampled()) {
      tracer_->CloseTrace(prep.trace.trace_id, now);
    }
  }
  queue_.clear();
  // Still in flight after the drain: unresolved, so they score as
  // timeouts. Sorted by id so the record order is platform-independent.
  std::vector<uint64_t> ids;
  ids.reserve(inflight_.size());
  for (const auto& [id, info] : inflight_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    const Inflight& info = inflight_.at(id);
    WorkloadQueryRecord rec;
    rec.id = id;
    rec.cls = info.cls;
    rec.arrived_at = info.arrived_at;
    rec.queue_wait = info.queue_wait;
    rec.latency = now - info.arrived_at;
    rec.outcome = QueryOutcome::kTimedOut;
    rec.path = info.path;
    records_.push_back(rec);
    ++report_.timed_out;
    if (info.trace.sampled()) {
      tracer_->CloseTrace(info.trace.trace_id, now);
    }
  }
  inflight_.clear();
  inflight_count_ = 0;
  if (serving_ != nullptr) report_.serving = serving_->counters();
}

SloReport QueryDriver::Run(SimTime duration, SimTime drain) {
  Simulator& sim = network_->sim();
  const SimTime start = sim.Now();
  end_time_ = start + duration;
  if (spec_.arrival == ArrivalKind::kClosedLoop) {
    for (int s = 0; s < spec_.sessions; ++s) {
      sim.ScheduleAt(start, [this] { StartSession(); });
    }
  } else {
    ScheduleNextArrival();
  }
  sim.RunUntil(end_time_ + drain);
  Finalize();
  report_.duration = duration;
  return report_;
}

}  // namespace diknn
