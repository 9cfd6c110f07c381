#include "serving/front_end.h"

#include <algorithm>
#include <cstdlib>

namespace diknn {

ServingFrontEnd::ServingFrontEnd(const ServingParams& params,
                                 const Rect& field, double max_speed,
                                 double radio_range)
    : params_(params),
      cache_(params.cache_ttl, field, params.cache_cells, max_speed,
             radio_range),
      coalescer_(params.coalesce_window, params.coalesce_kslack) {}

int ServingFrontEnd::RingOf(const Point& q, const Point& sink_pos) const {
  // Cells are row-major with cache_cells columns (see ResultCache).
  const int32_t cols = std::max(params_.cache_cells, 1);
  const int32_t qc = cache_.CellOf(q);
  const int32_t sc = cache_.CellOf(sink_pos);
  const int32_t dx = qc % cols - sc % cols;
  const int32_t dy = qc / cols - sc / cols;
  return std::max(std::abs(dx), std::abs(dy));
}

ServingFrontEnd::Decision ServingFrontEnd::Route(uint64_t ticket,
                                                 const Point& q,
                                                 const Point& sink_pos,
                                                 int cls, int k,
                                                 double budget, SimTime now) {
  Decision decision;
  const int32_t cell = cache_.CellOf(q);
  const uint64_t key = ResultCache::Key(cell, cls);

  // Stage 1: the cache answers for free, so it is always checked first.
  if (params_.cache_ttl > 0.0) {
    bool expired = false;
    const auto hit = cache_.Lookup(cell, cls, k, q, now, &expired);
    if (hit.has_value()) {
      ++counters_.cache_hits;
      decision.path = ServingPath::kCacheHit;
      decision.candidates = *hit;
      return decision;
    }
    ++counters_.cache_misses;
    if (expired) ++counters_.cache_expired;
  }

  // Stage 2: riding an in-flight itinerary costs nothing either.
  if (params_.coalesce_window > 0.0) {
    const auto leader = coalescer_.TryAttach(key, ticket, k, now);
    if (leader.has_value()) {
      ++counters_.coalesced;
      decision.path = ServingPath::kFollower;
      decision.leader = *leader;
      return decision;
    }
  }

  // Stage 3: this query would launch an itinerary — shed it if it cannot
  // finish in time anyway.
  if (params_.shed && budget != 0.0) {
    const int ring = RingOf(q, sink_pos);
    if (budget < 0.0) {
      // Already past its deadline (queue wait ate the whole budget):
      // launching is certain waste, no prediction needed.
      ++counters_.shed;
      decision.path = ServingPath::kShed;
      decision.estimate = predictor_.Estimate(ring);
      return decision;
    }
    const uint64_t probes_before = predictor_.probes();
    if (predictor_.ShouldShed(ring, budget)) {
      ++counters_.shed;
      decision.path = ServingPath::kShed;
      decision.estimate = predictor_.Estimate(ring);
      return decision;
    }
    if (predictor_.probes() > probes_before) ++counters_.shed_probes;
  }

  if (params_.coalesce_window > 0.0) {
    coalescer_.RegisterLeader(key, ticket, k, now);
  }
  return decision;
}

const std::vector<QueryCoalescer::Follower>& ServingFrontEnd::OnResolved(
    uint64_t ticket, const Point& q, const Point& sink_pos, int cls, int k,
    const std::vector<KnnCandidate>& candidates, double protocol_latency,
    bool timed_out, SimTime now) {
  predictor_.Observe(RingOf(q, sink_pos), protocol_latency);
  if (params_.cache_ttl > 0.0 && !timed_out && !candidates.empty()) {
    cache_.Insert(cache_.CellOf(q), cls, k, candidates, now);
    ++counters_.cache_insertions;
  }
  const auto& followers = coalescer_.OnLeaderResolved(ticket);
  counters_.fanned_out += followers.size();
  return followers;
}

}  // namespace diknn
