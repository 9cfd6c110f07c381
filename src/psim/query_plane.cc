// Query plane of the conservative parallel engine (see query_plane.h for
// the protocol argument). Split in three parts:
//
//   1. BuildQueryPlane — single-threaded, run by the engine before the
//      shards are constructed;
//   2. the PsimShard frame handlers — the DIKNN emulation proper: request
//      routing, itinerary traversal with collection, sector-result merge,
//      reply delivery;
//   3. the sink duties — this engine's side of the shared QuerySink:
//      per-window arrivals, the request-frame launch, timeout scans, and
//      reply resolution.
//
// Determinism note repeated from the header: every decision below reads
// only (a) state owned by the shard executing it at that window, (b)
// immutable configuration, or (c) cross-phase state written strictly on
// the other side of a barrier (node cells, alive flags). Losses come from
// a stateless hash over (seed, sender, seq, dest, retries) — the retry
// counter is folded in so a retried hop redraws instead of losing
// forever.

#include "psim/query_plane.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/splitmix.h"
#include "knn/itinerary.h"
#include "psim/shard.h"
#include "routing/greedy.h"
#include "workload/query_sampler.h"

namespace diknn {

namespace {

// Salts the query plane's loss hash apart from the substrate's, so the
// two planes draw independent streams from the same mixer.
constexpr uint64_t kQueryLossSalt = 0x0051D5EC7ull;

bool RangeClass(QueryClass cls) {
  return cls == QueryClass::kWindow || cls == QueryClass::kAggregate;
}

uint16_t CandLimitOf(const PsimQuery& q) {
  return RangeClass(q.cls) ? static_cast<uint16_t>(kMaxQueryCandidates)
                           : q.k;
}

// Dedup-by-id k-best insert. `found` tallies every distinct node accepted
// (including ones that later rotate out of a full set), which is what the
// aggregate classes report. Returns true when the set changed.
bool InsertCandidate(uint16_t* ncand,
                     std::array<QueryCandidate, kMaxQueryCandidates>* cand,
                     uint32_t* found, const QueryCandidate& c,
                     uint16_t limit) {
  for (uint16_t i = 0; i < *ncand; ++i) {
    if ((*cand)[i].id == c.id) return false;
  }
  if (*ncand < limit) {
    (*cand)[(*ncand)++] = c;
    ++*found;
    return true;
  }
  uint16_t worst = 0;
  for (uint16_t i = 1; i < *ncand; ++i) {
    if ((*cand)[i].d2 > (*cand)[worst].d2) worst = i;
  }
  if (c.d2 < (*cand)[worst].d2) {
    (*cand)[worst] = c;
    ++*found;
    return true;
  }
  return false;
}

NodeId PrevAsNodeId(uint32_t prev) {
  return prev == kInvalidQueryNode ? kInvalidNodeId
                                   : static_cast<NodeId>(prev);
}

// Query frames never apply *on* a sweep window. The sweep may migrate a
// frame's destination in the very window the frame would apply, and both
// handoff paths (sweep-phase slot forwarding, drain-phase re-routing)
// reach the new owner one drain later at the earliest — on time only for
// frames applying strictly after the sweep. refresh_windows is a pure
// function of the net params, so this bump shifts the same frames by the
// same amount at every shard count and timing stays partition-invariant.
uint32_t SkipSweepWindow(uint32_t window, int refresh_windows) {
  if (refresh_windows > 1 &&
      window % static_cast<uint32_t>(refresh_windows) == 0) {
    ++window;
  }
  return window;
}

}  // namespace

QueryPlaneStats& QueryPlaneStats::operator+=(const QueryPlaneStats& o) {
  hops += o.hops;
  request_hops += o.request_hops;
  qnode_hops += o.qnode_hops;
  result_hops += o.result_hops;
  home_arrivals += o.home_arrivals;
  sector_results += o.sector_results;
  replies += o.replies;
  collections += o.collections;
  retries += o.retries;
  drops_loss += o.drops_loss;
  drops_stuck += o.drops_stuck;
  drops_dead += o.drops_dead;
  drops_ttl += o.drops_ttl;
  late_replies += o.late_replies;
  boundary_frames += o.boundary_frames;
  foreign_frames += o.foreign_frames;
  remails += o.remails;
  state_migrations += o.state_migrations;
  return *this;
}

void BuildQueryPlane(QueryPlaneState* qp, const Rect& field, int node_count,
                     double radio_range, double max_speed,
                     SimTime run_duration, uint64_t seed) {
  QueryPlaneConfig& cfg = qp->config;
  qp->roles.assign(static_cast<size_t>(node_count), 0);
  if (!cfg.enabled) return;
  const WorkloadSpec& spec = cfg.spec;

  qp->step = std::max(1e-3, cfg.diknn.step_fraction * radio_range);
  qp->itinerary_width = cfg.diknn.width > 0.0
                            ? cfg.diknn.width
                            : DefaultItineraryWidth(radio_range);
  if (cfg.horizon <= 0.0) cfg.horizon = run_duration;
  if (cfg.sink < static_cast<uint32_t>(node_count)) {
    qp->roles[cfg.sink] = 1;  // The sink role never retires.
  }

  // QueryDriver's draws, stream and order, so both engines issue the
  // same queries for one spec and seed.
  QuerySampler sampler(spec, field, node_count, WorkloadSeed(seed),
                       static_cast<NodeId>(cfg.sink));
  const double area = field.Area();
  const double half_diag = 0.5 * std::hypot(field.Width(), field.Height());
  double t = cfg.warmup;
  float max_radius = static_cast<float>(radio_range);
  while (true) {
    // Closed-loop sessions run as a fixed-rate open stream of `sessions`
    // q/s (documented divergence; the protocol latency is close to one
    // second at the defaults, so each session offers ~1 q/s).
    t += spec.arrival == ArrivalKind::kClosedLoop
             ? 1.0 / std::max(1, spec.sessions)
             : sampler.NextInterval();
    if (t >= cfg.horizon) break;
    const SampledQuery drawn = sampler.Next();

    PsimQuery q;
    q.issue_t = t;
    q.cls = drawn.cls;
    q.q = drawn.q;
    q.k = static_cast<uint16_t>(
        std::clamp(drawn.k, 1, static_cast<int>(kMaxQueryCandidates)));

    if (RangeClass(q.cls)) {
      const double half = 0.5 * std::max(1.0, spec.window_side);
      Rect r{{q.q.x - half, q.q.y - half}, {q.q.x + half, q.q.y + half}};
      r.min = field.Clamp(r.min);
      r.max = field.Clamp(r.max);
      q.rect = r;
      q.k = static_cast<uint16_t>(kMaxQueryCandidates);
      // The itinerary must sweep past every corner of the clamped rect.
      double far2 = 0.0;
      const Point corners[4] = {
          r.min, {r.min.x, r.max.y}, {r.max.x, r.min.y}, r.max};
      for (const Point& c : corners) {
        far2 = std::max(far2, SquaredDistance(q.q, c));
      }
      q.radius = static_cast<float>(
          std::max(radio_range, std::sqrt(far2)));
    } else {
      // KNN boundary estimate under uniform density, with the paper's
      // conservative expansion margin; never below one radio range.
      const double est =
          1.5 * std::sqrt(static_cast<double>(q.k) * area /
                          (kPi * std::max(1, node_count)));
      q.radius = static_cast<float>(
          std::clamp(est, radio_range, std::max(radio_range, half_diag)));
    }
    max_radius = std::max(max_radius, q.radius);

    qp->queries.push_back(q);
  }
  qp->max_radius = max_radius;

  // Pre-size the sink-side containers so steady state never allocates.
  qp->active.reserve(qp->queries.size() + 1);
  qp->answer.reserve(kMaxQueryCandidates);
  qp->sink.emplace(spec, field, max_speed, radio_range);
}

// ---------------------------------------------------------------------------
// PsimShard: frame plumbing.

void PsimShard::ProcessQueryWindow(uint64_t k) {
  QueryPlaneState& qp = world_->query;
  const SimTime now =
      static_cast<double>(k) * world_->partition.lookahead();
  std::vector<PsimQueryFrame>& slot = qslots_[k % kQuerySlotCount];
  if (!slot.empty()) {
    qorder_.resize(slot.size());
    for (size_t i = 0; i < qorder_.size(); ++i) {
      qorder_[i] = static_cast<uint32_t>(i);
    }
    // Global application order: (t, sender, seq) is unique (seq rides the
    // sender's beacon counter), so every shard count applies the same
    // frames in the same order.
    std::sort(qorder_.begin(), qorder_.end(),
              [&slot](uint32_t a, uint32_t b) {
                const PsimQueryFrame& fa = slot[a];
                const PsimQueryFrame& fb = slot[b];
                if (fa.t != fb.t) return fa.t < fb.t;
                if (fa.sender != fb.sender) return fa.sender < fb.sender;
                return fa.seq < fb.seq;
              });
    // Handlers only append to later slots (every send delay >= 1 window),
    // never to this one.
    for (uint32_t idx : qorder_) ApplyQueryFrame(slot[idx], k, now);
    slot.clear();
  }
  const uint32_t sink = qp.config.sink;
  if (world_->partition.OwnerOfCell(world_->nodes[sink].cell) == id_) {
    ProcessSink(k, now);
  }
}

void PsimShard::ApplyQueryFrame(const PsimQueryFrame& f, uint64_t k,
                                SimTime now) {
  assert(f.window == static_cast<uint32_t>(k));
  // The destination may have migrated between stamp and application; hand
  // the frame to the current owner for the next window. One sweep moves a
  // node at most one cell, so the new owner is still adjacent.
  const int owner =
      world_->partition.OwnerOfCell(world_->nodes[f.dest].cell);
  if (owner != id_) {
    PsimQueryFrame g = f;
    g.window = SkipSweepWindow(static_cast<uint32_t>(k + 1),
                               world_->partition.refresh_windows());
    ++stats_.qp.remails;
    RouteQueryFrame(g);
    return;
  }
  if (!world_->alive[f.dest]) {
    ++stats_.qp.drops_dead;  // The query resolves via the sink timeout.
    return;
  }
  if (world_->config.loss_rate > 0.0 && QueryLossDraw(f)) {
    if (f.retries >= kQueryMaxRetries) {
      ++stats_.qp.drops_loss;
      return;
    }
    // Receiver-side deterministic re-forward: same frame, next window,
    // fresh loss draw (the retry counter is folded into the hash).
    PsimQueryFrame g = f;
    ++g.retries;
    g.window = SkipSweepWindow(static_cast<uint32_t>(k + 1),
                               world_->partition.refresh_windows());
    ++stats_.qp.retries;
    RouteQueryFrame(g);
    return;
  }
  ++stats_.qp.hops;
  if (f.hops >= kQueryFrameTtl) {
    ++stats_.qp.drops_ttl;
    return;
  }
  switch (f.kind) {
    case QueryFrameKind::kRequest:
      HandleRequest(f, now);
      break;
    case QueryFrameKind::kItinerary:
      HandleItinerary(f, now);
      break;
    case QueryFrameKind::kSectorResult:
      HandleSectorResult(f, now);
      break;
    case QueryFrameKind::kReply:
      HandleReply(f, now);
      break;
  }
}

bool PsimShard::QueryLossDraw(const PsimQueryFrame& f) const {
  uint64_t h = SplitMix64(world_->config.seed ^
                          SplitMix64(kQueryLossSalt ^
                                     (static_cast<uint64_t>(f.sender) << 32 |
                                      f.seq)));
  h = SplitMix64(h ^ (static_cast<uint64_t>(f.dest) << 8) ^ f.retries);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < world_->config.loss_rate;
}

void PsimShard::SendQueryFrame(PsimQueryFrame* f, uint32_t from_node,
                               uint32_t delay_windows) {
  PsimNode& n = world_->nodes[from_node];
  f->sender = from_node;
  f->seq = n.seq++;  // Shared with the beacon counter: globally unique.
  uint32_t delay = std::max<uint32_t>(1, delay_windows);
  delay = std::min(delay, kQuerySlotCount - 2);  // Slot-ring safety.
  f->window = SkipSweepWindow(static_cast<uint32_t>(current_window_ + delay),
                              world_->partition.refresh_windows());
  f->t = static_cast<double>(f->window) * world_->partition.lookahead();
  RouteQueryFrame(*f);
}

void PsimShard::RouteQueryFrame(const PsimQueryFrame& f) {
  const int owner =
      world_->partition.OwnerOfCell(world_->nodes[f.dest].cell);
  if (owner == id_) {
    qslots_[f.window % kQuerySlotCount].push_back(f);
    return;
  }
  // A hop's destination is within radio range of the sender (and bucket
  // drift is bounded by one cell), so the owner is always an adjacent
  // tile — tiles are >= kMinTileSpan cells per axis.
  NeighborInbox* box = OutboxFor(owner);
  assert(box != nullptr && "query hop crossed to a non-adjacent shard");
  if (box == nullptr) {
    ++stats_.qp.drops_stuck;
    return;
  }
  box->queries.Push(f);
  ++stats_.qp.boundary_frames;
}

// ---------------------------------------------------------------------------
// PsimShard: DIKNN emulation.

void PsimShard::HandleRequest(const PsimQueryFrame& f, SimTime now) {
  const PsimQuery& q = world_->query.queries[f.query];
  const uint32_t v = f.dest;
  PsimNode& node = world_->nodes[v];
  const Point pos = node.mobility.PositionAt(now);
  NeighborEntry next;
  if (GreedyNextHopFrom(node.neighbors, pos, q.q, PrevAsNodeId(f.prev),
                        now, &next)) {
    PsimQueryFrame g = f;
    g.prev = v;
    g.dest = static_cast<uint32_t>(next.id);
    ++g.hops;
    ++stats_.qp.request_hops;
    SendQueryFrame(&g, v, 1);
    return;
  }
  // Greedy local minimum for q: this node is the query's home node.
  HandleHomeArrival(f.query, v, now);
}

void PsimShard::HandleHomeArrival(uint32_t query, uint32_t v, SimTime now) {
  QueryPlaneState& qp = world_->query;
  PsimQuery& q = qp.queries[query];
  ++stats_.qp.home_arrivals;
  q.home = v;
  q.sectors_total =
      static_cast<uint8_t>(std::max(1, qp.config.diknn.num_sectors));
  q.sectors_done = 0;
  q.ncand = 0;
  q.found = 0;
  ++qp.roles[v];  // Home duty: merge state now travels with this node.
  // The home node contributes its own neighborhood before dissemination.
  CollectAt(v, q, now, &q.ncand, &q.cand, &q.found);
  const Point pos = world_->nodes[v].mobility.PositionAt(now);
  for (int s = 0; s < q.sectors_total; ++s) {
    float progress = 0.0f;
    NeighborEntry next;
    if (NextItineraryHop(q, s, v, pos, kInvalidQueryNode, now, &progress,
                         &next)) {
      PsimQueryFrame g{};
      g.kind = QueryFrameKind::kItinerary;
      g.query = query;
      g.sector = static_cast<uint8_t>(s);
      g.prev = v;
      g.dest = static_cast<uint32_t>(next.id);
      g.progress = progress;
      g.hops = 1;
      SendQueryFrame(&g, v, qp.collection_windows);
    } else {
      ++q.sectors_done;  // Empty sector: nothing to traverse.
    }
  }
  if (q.sectors_done >= q.sectors_total) SendReply(query, v, now);
}

bool PsimShard::NextItineraryHop(const PsimQuery& q, int sector, uint32_t v,
                                 const Point& pos, uint32_t prev,
                                 SimTime now, float* progress,
                                 NeighborEntry* next) {
  QueryPlaneState& qp = world_->query;
  ItineraryParams params;
  params.q = q.q;
  params.radius = q.radius;
  params.sector = sector;
  params.num_sectors = std::max(1, qp.config.diknn.num_sectors);
  params.width = qp.itinerary_width;
  params.extra_rings = 0;
  itinerary_scratch_.Rebuild(params);
  const double total = itinerary_scratch_.TotalLength();
  const PsimNode& node = world_->nodes[v];
  const NodeId exclude = PrevAsNodeId(prev);
  double s_pos = *progress;
  for (int skip = 0; skip <= qp.config.diknn.max_void_skips; ++skip) {
    s_pos += qp.step;
    if (s_pos >= total) return false;  // Sector exhausted.
    const Point anchor = itinerary_scratch_.PointAt(s_pos);
    // Next Q-node: the fresh neighbor closest to the anchor among those
    // strictly closer to it than v, previous hop excluded (GPSR's greedy
    // rule, routing/greedy.h). The serial Diknn::ForwardAlongItinerary
    // is looser: it also takes a neighbor within w/2 of the anchor that
    // is not closer, and it may pick the previous hop.
    if (GreedyNextHopFrom(node.neighbors, pos, anchor, exclude, now,
                          next)) {
      *progress = static_cast<float>(s_pos);
      return true;
    }
    // Void region: slide the anchor one step further and retry.
  }
  return false;  // Persistent void: the sector ends early.
}

void PsimShard::HandleItinerary(const PsimQueryFrame& f, SimTime now) {
  QueryPlaneState& qp = world_->query;
  const PsimQuery& q = qp.queries[f.query];
  const uint32_t v = f.dest;
  ++stats_.qp.qnode_hops;
  PsimQueryFrame g = f;
  uint32_t found = 0;
  CollectAt(v, q, now, &g.ncand, &g.cand, &found);
  g.agg += found;
  const Point pos = world_->nodes[v].mobility.PositionAt(now);
  float progress = g.progress;
  NeighborEntry next;
  if (NextItineraryHop(q, f.sector, v, pos, f.prev, now, &progress,
                       &next)) {
    g.prev = v;
    g.dest = static_cast<uint32_t>(next.id);
    g.progress = progress;
    ++g.hops;
    SendQueryFrame(&g, v, qp.collection_windows);
    return;
  }
  // Sector exhausted: ship the collected candidates home. The result leg
  // gets a fresh TTL budget.
  g.kind = QueryFrameKind::kSectorResult;
  g.hops = 0;
  SendToward(&g, v, q.home, q.q, now);
}

void PsimShard::HandleSectorResult(const PsimQueryFrame& f, SimTime now) {
  QueryPlaneState& qp = world_->query;
  PsimQuery& q = qp.queries[f.query];
  const uint32_t v = f.dest;
  // Reading q.home off the home's shard is safe: it was written before
  // the first itinerary frame was mailed, and every sector-result frame
  // is causally (release/acquire chained) after that write.
  if (v == q.home) {
    ++stats_.qp.sector_results;
    const uint16_t limit = CandLimitOf(q);
    for (uint16_t i = 0; i < f.ncand; ++i) {
      InsertCandidate(&q.ncand, &q.cand, &q.found, f.cand[i], limit);
    }
    ++q.sectors_done;
    if (q.sectors_done >= q.sectors_total) SendReply(f.query, v, now);
    return;
  }
  PsimQueryFrame g = f;
  SendToward(&g, v, q.home, q.q, now);
}

void PsimShard::HandleReply(const PsimQueryFrame& f, SimTime now) {
  QueryPlaneState& qp = world_->query;
  const uint32_t v = f.dest;
  if (v != qp.config.sink) {
    PsimQueryFrame g = f;
    SendToward(&g, v, qp.config.sink, SinkTargetPoint(), now);
  } else if (ResolveLeader(f.query, &f, now)) {
    ++stats_.qp.replies;
  } else {
    ++stats_.qp.late_replies;  // Timed out first.
  }
}

void PsimShard::SendReply(uint32_t query, uint32_t home, SimTime now) {
  QueryPlaneState& qp = world_->query;
  PsimQuery& q = qp.queries[query];
  PsimQueryFrame g{};
  g.kind = QueryFrameKind::kReply;
  g.query = query;
  g.prev = kInvalidQueryNode;
  g.ncand = q.ncand;
  g.cand = q.cand;
  g.agg = q.found;
  // Home duty complete: release the role refcount taken at arrival.
  assert(qp.roles[home] > 0);
  --qp.roles[home];
  SendToward(&g, home, qp.config.sink, SinkTargetPoint(), now);
}

void PsimShard::SendToward(PsimQueryFrame* f, uint32_t v,
                           uint32_t target_node, const Point& target_point,
                           SimTime now) {
  if (v == target_node) {
    // Already there: apply at self next window (keeps the one-window
    // delay invariant instead of recursing into the handler).
    f->prev = v;
    f->dest = v;
    SendQueryFrame(f, v, 1);
    return;
  }
  PsimNode& node = world_->nodes[v];
  const Point pos = node.mobility.PositionAt(now);
  // Target-node short-circuit: a fresh table entry beats geometry.
  if (node.neighbors.Lookup(static_cast<NodeId>(target_node), now)
          .has_value()) {
    f->prev = v;
    f->dest = target_node;
    ++f->hops;
    ++stats_.qp.result_hops;
    SendQueryFrame(f, v, 1);
    return;
  }
  NeighborEntry next;
  if (GreedyNextHopFrom(node.neighbors, pos, target_point,
                        PrevAsNodeId(f->prev), now, &next)) {
    f->prev = v;
    f->dest = static_cast<uint32_t>(next.id);
    ++f->hops;
    ++stats_.qp.result_hops;
    SendQueryFrame(f, v, 1);
    return;
  }
  // Greedy dead end (the overlay has no perimeter fallback): the query
  // resolves via the sink timeout.
  ++stats_.qp.drops_stuck;
}

void PsimShard::CollectAt(
    uint32_t v, const PsimQuery& q, SimTime now, uint16_t* ncand,
    std::array<QueryCandidate, kMaxQueryCandidates>* cand,
    uint32_t* found) {
  PsimNode& node = world_->nodes[v];
  const Point pos = node.mobility.PositionAt(now);
  const uint16_t limit = CandLimitOf(q);
  const double r2 =
      static_cast<double>(q.radius) * static_cast<double>(q.radius);
  const bool range = RangeClass(q.cls);
  auto consider = [&](uint32_t id, const Point& p) {
    if (!world_->alive[id]) return;
    if (range ? !q.rect.Contains(p) : SquaredDistance(p, q.q) > r2) return;
    const QueryCandidate c{id, static_cast<float>(p.x),
                           static_cast<float>(p.y),
                           static_cast<float>(SquaredDistance(p, q.q))};
    if (InsertCandidate(ncand, cand, found, c, limit)) {
      ++stats_.qp.collections;
    }
  };
  consider(v, pos);
  node.neighbors.ForEachFresh(now, [&](const NeighborEntry& n) {
    if (n.id < 0) return;
    consider(static_cast<uint32_t>(n.id), n.position);
  });
}

// ---------------------------------------------------------------------------
// PsimShard: sink duties (only the shard owning the sink runs these).

Point PsimShard::SinkTargetPoint() const {
  const FieldPartition& part = world_->partition;
  const int32_t cell = world_->nodes[world_->query.config.sink].cell;
  const int x = static_cast<int>(cell % part.nx());
  const int y = static_cast<int>(cell / part.nx());
  return {(x + 0.5) * part.cell_size(), (y + 0.5) * part.cell_size()};
}

void PsimShard::ProcessSink(uint64_t k, SimTime now) {
  QueryPlaneState& qp = world_->query;
  // Timeout scan on the sweep cadence (global sync points, so the scan
  // windows are identical at every shard count).
  const double timeout = qp.config.diknn.query_timeout;
  if (timeout > 0.0 &&
      k % static_cast<uint64_t>(world_->partition.refresh_windows()) == 0) {
    // ResolveLeader swaps the last active query into slot i.
    for (size_t i = 0; i < qp.active.size();) {
      if (now - qp.active[i].launched_at >= timeout) {
        ResolveLeader(qp.active[i].id, nullptr, now);
      } else {
        ++i;
      }
    }
  }
  // Hand this window's arrivals to the sink.
  const double window_end =
      static_cast<double>(k + 1) * world_->partition.lookahead();
  while (qp.next_arrival < qp.queries.size() &&
         qp.queries[qp.next_arrival].issue_t < window_end) {
    const uint32_t id = static_cast<uint32_t>(qp.next_arrival++);
    const PsimQuery& q = qp.queries[id];
    qp.sink->Arrive(id,
                    SampledQuery{q.cls, static_cast<NodeId>(qp.config.sink),
                                 q.q, q.k},
                    q.issue_t, now, *this);
  }
}

Point PsimShard::SinkPosition(NodeId sink, SimTime now) {
  return world_->nodes[static_cast<uint32_t>(sink)].mobility.PositionAt(
      now);
}

void PsimShard::Launch(const SinkQuery& query) {
  if (query.path != ServingPath::kDirect) return;  // Served by the sink.
  QueryPlaneState& qp = world_->query;
  const SimTime now = query.launched_at;
  const uint32_t sink = qp.config.sink;
  PsimNode& snode = world_->nodes[sink];
  qp.active.push_back(query);
  PsimQueryFrame g{};
  g.kind = QueryFrameKind::kRequest;
  g.query = static_cast<uint32_t>(query.id);
  g.prev = kInvalidQueryNode;
  g.hops = 1;
  NeighborEntry next;
  if (GreedyNextHopFrom(snode.neighbors, snode.mobility.PositionAt(now),
                        query.q, kInvalidNodeId, now, &next)) {
    g.dest = static_cast<uint32_t>(next.id);
    ++stats_.qp.request_hops;
  } else {
    // The sink is its own local minimum: it will be the home node (the
    // request handler re-derives that next window).
    g.dest = sink;
  }
  SendQueryFrame(&g, sink, 1);
}

bool PsimShard::ResolveLeader(uint32_t id, const PsimQueryFrame* reply,
                              SimTime now) {
  QueryPlaneState& qp = world_->query;
  const auto it = std::find_if(
      qp.active.begin(), qp.active.end(),
      [id](const SinkQuery& launched) { return launched.id == id; });
  if (it == qp.active.end()) return false;
  const SimTime launched_at = it->launched_at;
  *it = qp.active.back();
  qp.active.pop_back();
  qp.answer.clear();
  for (uint16_t i = 0; reply != nullptr && i < reply->ncand; ++i) {
    const QueryCandidate& c = reply->cand[i];
    qp.answer.push_back({static_cast<NodeId>(c.id), {c.x, c.y}, 0.0, now});
  }
  qp.sink->Resolve(id, now - launched_at, /*timed_out=*/reply == nullptr,
                   qp.answer, now, *this);
  return true;
}

}  // namespace diknn
