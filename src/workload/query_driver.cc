#include "workload/query_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/alloc_probe.h"
#include "obs/tracer.h"

namespace diknn {

namespace {

// Mean of one accuracy field over the records that scored it (0 if none).
double MeanScored(const std::vector<WorkloadQueryRecord>& records,
                  double WorkloadQueryRecord::*accuracy) {
  double sum = 0.0;
  int n = 0;
  for (const WorkloadQueryRecord& r : records) {
    if (r.*accuracy >= 0.0) {
      sum += r.*accuracy;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

}  // namespace

QueryDriver::QueryDriver(Network* network, GpsrRouting* gpsr,
                         KnnProtocol* protocol, const WorkloadSpec& spec,
                         uint64_t seed, NodeId sink)
    : network_(network),
      gpsr_(gpsr),
      protocol_(protocol),
      spec_(spec),
      sampler_(spec, network->config().field, network->config().node_count,
               seed, sink),
      // Static fields have zero drift, so the serving cache's validity
      // time is only capped by the spec's ttl there.
      sink_(spec, network->config().field,
            network->config().mobility == MobilityKind::kStatic
                ? 0.0
                : network->config().max_speed,
            network->config().radio_range_m) {
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
}

double QueryDriver::MeanPreAccuracy() const {
  return MeanScored(records_, &WorkloadQueryRecord::pre_accuracy);
}

double QueryDriver::MeanPostAccuracy() const {
  return MeanScored(records_, &WorkloadQueryRecord::post_accuracy);
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

Point QueryDriver::SinkPosition(NodeId sink, SimTime /*now*/) {
  return network_->node(sink)->Position();
}

void QueryDriver::Launch(const SinkQuery& query) {
  if (query.cls == QueryClass::kKnn) {
    truth_pre_[query.id] = network_->TrueKnn(query.q, query.k);
  }
  if (query.path != ServingPath::kDirect) return;  // Served by the sink.
  const uint64_t id = query.id;
  // Every class reports its latency and timeout; point-KNN queries also
  // hand over their answer.
  const auto resolve = [this, id](
                           const auto& result,
                           const std::vector<KnnCandidate>& answer = {}) {
    sink_.Resolve(id, result.Latency(), result.timed_out, answer,
                  network_->sim().Now(), *this);
  };
  switch (query.cls) {
    case QueryClass::kKnn: {
      // Hand the root context to the protocol for the duration of the
      // launch call: its IssueQuery adopts the ambient trace instead of
      // starting a second one, so protocol phases nest under this root.
      // An unsampled context is handed over too: the sink made the one
      // sampling decision this query gets.
      Tracer::AmbientScope ambient(sink_.tracer(), query.trace);
      protocol_->IssueQuery(query.sink, query.q, query.k,
                            [resolve](const KnnResult& result) {
                              resolve(result, result.candidates);
                            });
      break;
    }
    case QueryClass::kKnnBoundary:
      // Range query over the estimated KNN boundary of q: the square
      // circumscribing the radius-R disk that should hold ~k nodes.
      window_->IssueQuery(query.sink,
                          QueryRect(query.q, 2.0 * BoundaryRadius(query.k)),
                          resolve);
      break;
    case QueryClass::kWindow:
      window_->IssueQuery(query.sink, QueryRect(query.q, spec_.window_side),
                          resolve);
      break;
    case QueryClass::kContinuous:
      continuous_->Subscribe(
          query.sink, query.q, query.k, spec_.continuous_period,
          spec_.continuous_rounds, [this, resolve](const KnnUpdate& update) {
            // The subscription resolves when its last round completes;
            // earlier rounds are progress, not resolution.
            if (update.round + 1 >= spec_.continuous_rounds) {
              resolve(update.result);
            }
          });
      break;
    case QueryClass::kAggregate:
      aggregate_->IssueQuery(query.sink,
                             QueryRect(query.q, spec_.window_side), resolve);
      break;
  }
}

void QueryDriver::Scored(const SinkQuery& query,
                         const WorkloadQueryRecord& record,
                         std::span<const KnnCandidate> answer) {
  // Scoring is the harness's bookkeeping, not protocol work: a protocol
  // that completes a query from inside a frame delivery (KPT, Peer-tree)
  // must not charge the oracle and the record copies to the packet plane.
  AllocScopePause scoring;
  records_.push_back(record);
  const auto truth = truth_pre_.extract(query.id);
  if (truth.empty() || truth.mapped().empty()) return;
  // A follower's answer is its leader's superset, re-pruned around its own
  // query point and truncated to its own k.
  std::vector<KnnCandidate> returned(answer.begin(), answer.end());
  if (query.path == ServingPath::kFollower) {
    PruneCandidates(&returned, query.q, static_cast<size_t>(query.k));
  }
  std::vector<NodeId> ids;
  for (const KnnCandidate& c : returned) ids.push_back(c.id);
  records_.back().pre_accuracy = Accuracy(ids, truth.mapped());
  records_.back().post_accuracy =
      Accuracy(ids, network_->TrueKnn(query.q, query.k));
}

void QueryDriver::Settled() {
  if (spec_.arrival == ArrivalKind::kClosedLoop && !finalized_) {
    network_->sim().ScheduleAfter(spec_.think_time,
                                  [this] { StartSession(); });
  }
}

void QueryDriver::Arrive() {
  const SimTime now = network_->sim().Now();
  sink_.Arrive(next_id_++, sampler_.Next(), now, now, *this);
}

void QueryDriver::ScheduleNextArrival() {
  const SimTime t = network_->sim().Now() + sampler_.NextInterval();
  if (t >= end_time_) return;
  network_->sim().ScheduleAt(t, [this] {
    Arrive();
    ScheduleNextArrival();
  });
}

void QueryDriver::StartSession() {
  if (finalized_ || network_->sim().Now() >= end_time_) return;
  Arrive();
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
  // Queries still pending returned no answer: they go unscored.
  finalized_ = true;
  truth_pre_.clear();
  sink_.Finalize(sim.Now(), duration, *this);
  return sink_.report();
}

}  // namespace diknn
