#include "knn/diknn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/logging.h"
#include "net/packet_pool.h"
#include "obs/tracer.h"

namespace diknn {

namespace {

/// Wire sizes (bytes) of the fixed parts of each message.
constexpr size_t kQueryFixedBytes = 26;   // q, k, id, sink id+pos, g.
constexpr size_t kProbeBytes = 32;        // id, sector, q, R, pos, ref, win.
constexpr size_t kRendezvousBytes = 12;   // id, sector, ring, explored.
constexpr size_t kCandidateBytes = 12;    // id, pos, speed.

/// Interpolated estimate of nodes explored across *all* sectors from the
/// subset whose counts are known (the "simple bilinear interpolation" of
/// Section 4.3).
int EstimateTotalExplored(const std::vector<int>& sector_explored) {
  int sum = 0;
  int known = 0;
  for (int v : sector_explored) {
    if (v >= 0) {
      sum += v;
      ++known;
    }
  }
  if (known == 0) return 0;
  return static_cast<int>(
      static_cast<double>(sum) * sector_explored.size() / known);
}

}  // namespace

size_t Diknn::SectorState::WireBytes() const {
  return kQueryFixedBytes + 12 /* sector, radius, progress, flags, ts */ +
         best.size() * kCandidateBytes + 2 /* explored */ +
         2 /* max speed */ + sector_explored.size() * 2;
}

Diknn::Diknn(Network* network, GpsrRouting* gpsr, DiknnParams params)
    : network_(network),
      gpsr_(gpsr),
      params_(params),
      ledger_(&network->sim()) {
  assert(params_.num_sectors >= 1);
}

double Diknn::EffectiveWidth() const {
  return params_.width > 0.0
             ? params_.width
             : DefaultItineraryWidth(network_->config().radio_range_m);
}

Itinerary& Diknn::RebuildItinerary(const SectorState& state) {
  ItineraryParams ip;
  ip.q = state.query.q;
  ip.radius = state.radius;
  ip.sector = state.sector;
  ip.num_sectors = params_.num_sectors;
  ip.width = EffectiveWidth();
  ip.extra_rings = state.extra_rings;
  itinerary_scratch_.Rebuild(ip);
  return itinerary_scratch_;
}

FlatSet<NodeId>& Diknn::RepliedFor(uint64_t query_id) {
  auto [kv, inserted] = replied_.TryEmplace(query_id);
  if (inserted && !replied_freelist_.empty()) {
    // A retired query's dedup set, already cleared: its grown table
    // makes this query's inserts rehash-free from the start.
    kv->second = std::move(replied_freelist_.back());
    replied_freelist_.pop_back();
  }
  return kv->second;
}

void Diknn::RecycleReplied(uint64_t query_id) {
  FlatSet<NodeId>* replied = replied_.find(query_id);
  if (replied == nullptr) return;
  replied->clear();
  replied_freelist_.push_back(std::move(*replied));
  replied_.erase(query_id);
}

void Diknn::RecycleReplies(std::vector<KnnCandidate>* replies) {
  replies->clear();
  replies_freelist_.push_back(std::move(*replies));
}

void Diknn::Install() {
  gpsr_->RegisterDelivery(
      MessageType::kDiknnQuery,
      [this](Node* node, const GeoRoutedMessage& msg) {
        AllocScope scope(&knn_allocs_);
        OnHomeNodeArrival(node, msg);
      });
  gpsr_->RegisterDelivery(
      MessageType::kDiknnResult,
      [this](Node* node, const GeoRoutedMessage& msg) {
        AllocScope scope(&knn_allocs_);
        OnSectorResult(node, msg);
      });

  for (Node* node : network_->AllNodes()) {
    node->RegisterHandler(
        MessageType::kDiknnProbe, [this, node](const Packet& p) {
          AllocScope scope(&knn_allocs_);
          OnProbe(node, *static_cast<const ProbeMessage*>(p.payload.get()));
        });
    node->RegisterHandler(
        MessageType::kDiknnDataReply, [this, node](const Packet& p) {
          AllocScope scope(&knn_allocs_);
          OnReply(node, *static_cast<const ReplyMessage*>(p.payload.get()));
        });
    node->RegisterHandler(
        MessageType::kDiknnForward, [this, node](const Packet& p) {
          AllocScope scope(&knn_allocs_);
          const auto* fwd =
              static_cast<const ForwardMessage*>(p.payload.get());
          // The received payload is shared and immutable; the traversal
          // continues in a recycled pool object whose vector capacity
          // survives from earlier hops.
          auto copy = MessagePool::MakeReusable<ForwardMessage>();
          copy->state = fwd->state;
          StartQNode(node, std::move(copy));
        });
    node->RegisterHandler(
        MessageType::kDiknnRendezvous, [this, node](const Packet& p) {
          AllocScope scope(&knn_allocs_);
          OnRendezvous(
              node, *static_cast<const RendezvousMessage*>(p.payload.get()));
        });
  }
}

void Diknn::IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) {
  AllocScope scope(&knn_allocs_);
  Node* sink_node = network_->node(sink);
  KnnQuery query;
  query.id = ledger_.NextId();
  query.q = q;
  query.k = std::max(1, k);
  query.sink = sink;
  query.sink_position = sink_node->Position();
  query.assurance_gain = params_.assurance_gain;

  const uint64_t id = query.id;
  Ledger::Entry& pending = ledger_.Open(
      id, sink, std::move(handler), params_.query_timeout,
      [this, id]() { CompleteQuery(id, true); });
  pending.q = query.q;
  pending.k = query.k;
  if (tracer_ != nullptr) {
    // Join the workload driver's ambient trace when one is open (the
    // driver's root span then covers queueing ahead of the protocol);
    // otherwise this query is its own trace root (a direct launch).
    pending.trace = tracer_->has_ambient()
                        ? tracer_->ambient()
                        : tracer_->StartQuery(pending.issued_at);
    pending.route_span = tracer_->BeginSpan(pending.trace, SpanKind::kRoute,
                                            pending.issued_at, -1, sink);
  }
  const TraceContext route_ctx{pending.trace.trace_id, pending.route_span};
  ++stats_.queries_issued;

  auto bootstrap = MessagePool::Make<QueryBootstrap>();
  bootstrap->query = query;
  gpsr_->Send(sink_node, q, MessageType::kDiknnQuery, std::move(bootstrap),
              kQueryFixedBytes, EnergyCategory::kQuery,
              /*collect_info=*/true, kInvalidNodeId,
              /*cheap_delivery=*/false, route_ctx);
}

void Diknn::OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg) {
  const auto* bootstrap =
      static_cast<const QueryBootstrap*>(msg.inner.get());
  const KnnQuery& query = bootstrap->query;
  // The query may have timed out while the bootstrap was still routing
  // (partitioned or heavily faulted network); spawning sectors for it
  // would create state no completion ever erases.
  if (!QueryActive(query.id)) {
    ++stats_.stale_branches_dropped;
    return;
  }
  ++stats_.home_node_arrivals;

  TraceContext root_ctx;
  if (tracer_ != nullptr) {
    const Ledger::Entry* pending = ledger_.Find(query.id);
    if (pending != nullptr && pending->trace.sampled()) {
      root_ctx = pending->trace;
      tracer_->EndSpan(root_ctx.trace_id, pending->route_span,
                       network_->sim().Now());
    }
  }

  // Phase 2: KNN boundary estimation over the gathered list L.
  const KnnbResult knnb =
      Knnb(msg.info_list, query.q, network_->config().radio_range_m,
           query.k, KnnbMaxRadius(network_->config().field),
           params_.knnb_area_model);
  stats_.knnb_radius_sum += knnb.radius;
  ++stats_.knnb_runs;

  // Phase 3: spawn the S sub-itineraries concurrently. The home node's
  // own reading seeds the sector containing it; every other in-boundary
  // node is harvested by the probes of the sector Q-nodes (the first
  // Q-node of each sector sits within radio range of q, so the area
  // around the query point stays covered).
  const SimTime ts = network_->sim().Now();
  const SectorPartition sectors(query.q, params_.num_sectors);
  const int home_sector = sectors.SectorOf(node->Position());
  for (int s = 0; s < params_.num_sectors; ++s) {
    auto fwd = MessagePool::MakeReusable<ForwardMessage>();
    SectorState& state = fwd->state;
    state.query = query;
    state.sector = s;
    state.radius = knnb.radius;
    state.dissemination_start = ts;
    state.sector_explored.assign(params_.num_sectors, -1);
    if (root_ctx.sampled()) {
      state.trace = TraceContext{
          root_ctx.trace_id,
          tracer_->BeginSpan(root_ctx, SpanKind::kSector, ts, s, node->id())};
    }
    if (s == home_sector && !node->is_infrastructure()) {
      KnnCandidate self;
      self.id = node->id();
      self.position = node->Position();
      self.speed = node->Speed();
      self.sampled_at = ts;
      state.best.push_back(self);
      state.explored = 1;
      RepliedFor(query.id).insert(node->id());
    }
    state.sector_explored[s] = state.explored;
    ForwardAlongItinerary(node, std::move(fwd));
  }
}

void Diknn::StartQNode(Node* node, std::shared_ptr<ForwardMessage> fwd) {
  SectorState& state = fwd->state;
  // A forward that arrives after CompleteQuery tore the query down is a
  // straggler; processing it would re-insert last_hop_seen_ / collection
  // entries that nothing erases anymore.
  if (!QueryActive(state.query.id)) {
    ++stats_.stale_branches_dropped;
    return;
  }
  // Suppress duplicate traversal branches (ACK-loss forks).
  {
    const uint64_t key = CollectionKey(state.query.id, state.sector);
    auto [kv, inserted] = last_hop_seen_.TryEmplace(key, state.hop_count);
    if (!inserted) {
      if (state.hop_count <= kv->second) return;
      kv->second = state.hop_count;
    }
  }
  ++stats_.qnode_hops;
  if (hop_observer_) {
    hop_observer_(state.query.id, state.sector, node->Position());
  }

  // One hop span per Q-node visit, with the collection window nested
  // inside it; both close when the window finishes.
  SpanId hop_span = 0;
  SpanId collection_span = 0;
  if (tracer_ != nullptr && state.trace.sampled()) {
    const SimTime tnow = network_->sim().Now();
    hop_span = tracer_->BeginSpan(state.trace, SpanKind::kHop, tnow,
                                  state.sector, node->id());
    collection_span = tracer_->BeginSpan(
        TraceContext{state.trace.trace_id, hop_span}, SpanKind::kCollection,
        tnow, state.sector, node->id());
  }
  const TraceContext probe_ctx{state.trace.trace_id, collection_span};

  // The probe's collection radius follows the itinerary's actual
  // coverage: dynamic ring extensions walk beyond the original KNNB
  // boundary, and the nodes out there must answer too.
  const double collect_radius =
      std::max(state.radius,
               RebuildItinerary(state).CoverageRadius() +
                   EffectiveWidth() / 2);

  // Collection scheduling (Section 3.3 + footnote 1). The known
  // in-boundary neighbors form the precedence list, nearest to q first;
  // unknown nodes (table staleness) get the contention tail. Only *new*
  // D-nodes reply — each node answers one probe per query, and a Q-node's
  // disk overlaps its predecessor's by roughly half at the default step —
  // so the contention budget is about half the neighborhood.
  const SimTime now = network_->sim().Now();
  std::vector<NeighborEntry>& in_boundary = in_boundary_scratch_;
  in_boundary.clear();
  node->neighbors().ForEachFresh(now, [&](const NeighborEntry& n) {
    if (Distance(n.position, state.query.q) <= collect_radius) {
      in_boundary.push_back(n);
    }
  });
  const double m = params_.time_unit;
  auto probe = MessagePool::MakeReusable<ProbeMessage>();
  double window = 0.0;
  switch (params_.collection_scheme) {
    case CollectionScheme::kContention: {
      const int expected =
          std::clamp(static_cast<int>(in_boundary.size()) / 2 + 1, 3, 20);
      window = m * expected;
      probe->tail_start = 0.0;  // Whole window is the contention range.
      break;
    }
    case CollectionScheme::kPrecedenceList:
    case CollectionScheme::kHybrid: {
      std::sort(in_boundary.begin(), in_boundary.end(),
                [&](const NeighborEntry& a, const NeighborEntry& b) {
                  return SquaredDistance(a.position, state.query.q) <
                         SquaredDistance(b.position, state.query.q);
                });
      // Budget slots for about half the list: the predecessor's probe
      // already harvested the overlap, so most early slots go unused if
      // every known neighbor gets one.
      const int slots =
          std::min<int>(12, static_cast<int>(in_boundary.size()));
      probe->precedence.reserve(slots);
      for (int i = 0; i < slots; ++i) {
        probe->precedence.push_back(in_boundary[i].id);
      }
      probe->tail_start = m * std::max(1, slots);
      const int tail_slots =
          params_.collection_scheme == CollectionScheme::kHybrid
              ? std::max(3, slots / 3)
              : 0;
      window = probe->tail_start + m * tail_slots;
      break;
    }
  }

  probe->query_id = state.query.id;
  probe->sector = state.sector;
  probe->q = state.query.q;
  probe->radius = collect_radius;
  probe->qnode_position = node->Position();
  probe->reference_angle = AngleOf(node->Position(), state.query.q);
  probe->window = window;
  probe->trace = probe_ctx;

  const uint64_t key = CollectionKey(state.query.id, state.sector);
  // An ACK-loss fork can open a second collection for the same sector
  // while a predecessor's window is still pending; cancel the stale
  // window so its finish event cannot close the new collection early.
  if (Collection* stale = collections_.find(key)) {
    network_->sim().Cancel(stale->finish_event);
    RecycleReplies(&stale->replies);
    collections_.erase(key);
    ++stats_.collections_cancelled;
  }
  Collection collection;
  collection.fwd = std::move(fwd);
  collection.qnode = node->id();
  collection.hop_span = hop_span;
  collection.collection_span = collection_span;
  if (!replies_freelist_.empty()) {
    collection.replies = std::move(replies_freelist_.back());
    replies_freelist_.pop_back();
  }

  const size_t probe_bytes =
      kProbeBytes + probe->precedence.size() * kNodeIdBytes;
  node->SendBroadcast(MessageType::kDiknnProbe, std::move(probe),
                      probe_bytes, EnergyCategory::kQuery, {}, probe_ctx);
  ++stats_.probes_sent;

  // Guard interval: the last D-node's reply still needs its own air time
  // and potential MAC retries after the window closes.
  const double guard = 5.0 * params_.time_unit;
  collection.finish_event = network_->sim().ScheduleAfter(
      window + guard, [this, key]() { FinishCollection(key); });
  collections_.InsertOrAssign(key, std::move(collection));
}

void Diknn::OnProbe(Node* node, const ProbeMessage& probe) {
  // Only non-infrastructure nodes inside the boundary are D-nodes.
  if (node->is_infrastructure()) return;
  if (Distance(node->Position(), probe.q) > probe.radius) return;
  // A probe heard after its query completed must not touch replied_:
  // RepliedFor below would resurrect an entry CompleteQuery just erased.
  if (!QueryActive(probe.query_id)) {
    ++stats_.stale_branches_dropped;
    return;
  }

  FlatSet<NodeId>& replied = RepliedFor(probe.query_id);
  if (replied.contains(node->id())) return;
  replied.insert(node->id());

  // Reply scheduling: a node on the probe's precedence list takes its
  // token-ring slot (index * m); everyone else contends by angle — the
  // delay is proportional to the angle between the probe's reference
  // line and the Q-node->D-node line — inside the tail window. A pure
  // precedence probe (no tail) silences unlisted nodes; a pure
  // contention probe (tail_start = 0) has no slots.
  double delay = -1.0;
  if (!probe.precedence.empty()) {
    const auto it = std::find(probe.precedence.begin(),
                              probe.precedence.end(), node->id());
    if (it != probe.precedence.end()) {
      const double slot = probe.tail_start / probe.precedence.size();
      delay = slot * (it - probe.precedence.begin());
    }
  }
  if (delay < 0.0) {
    if (probe.tail_start >= probe.window) {
      replied.erase(node->id());
      return;  // Pure precedence list: unlisted nodes stay silent.
    }
    const double alpha = NormalizeAngle(
        AngleOf(probe.qnode_position, node->Position()) -
        probe.reference_angle);
    delay = probe.tail_start +
            (alpha / kTwoPi) * (probe.window - probe.tail_start);
  }

  const uint64_t query_id = probe.query_id;
  const int sector = probe.sector;
  const TraceContext probe_ctx = probe.trace;
  network_->sim().ScheduleAfter(delay, [this, node, query_id, sector,
                                        probe_ctx]() {
    AllocScope scope(&knn_allocs_);
    if (!node->alive()) return;
    auto reply = MessagePool::Make<ReplyMessage>();
    reply->query_id = query_id;
    reply->sector = sector;
    reply->candidate.id = node->id();
    reply->candidate.position = node->Position();
    reply->candidate.speed = node->Speed();
    reply->candidate.sampled_at = network_->sim().Now();
    // The collection owner may have moved on; look it up at send time. If
    // the window already closed (or the unicast fails), un-mark the node
    // so a later probe of the same query can still harvest it. The
    // un-marking uses find(): the query may have completed meanwhile, and
    // RepliedFor would re-insert an empty set that nothing ever cleans,
    // growing replied_ unboundedly across queries.
    Collection* collection = collections_.find(CollectionKey(query_id,
                                                             sector));
    if (collection == nullptr) {
      if (FlatSet<NodeId>* r = replied_.find(query_id)) {
        r->erase(node->id());
      }
      return;
    }
    node->SendUnicast(collection->qnode, MessageType::kDiknnDataReply,
                      std::move(reply), kQueryResponseBytes,
                      EnergyCategory::kQuery,
                      [this, query_id, node](bool success) {
                        if (success) return;
                        AllocScope retry_scope(&knn_allocs_);
                        if (FlatSet<NodeId>* r = replied_.find(query_id)) {
                          r->erase(node->id());
                        }
                      },
                      probe_ctx);
    ++stats_.replies_sent;
  });
}

void Diknn::OnReply(Node* node, const ReplyMessage& reply) {
  Collection* collection =
      collections_.find(CollectionKey(reply.query_id, reply.sector));
  if (collection == nullptr || collection->qnode != node->id()) return;
  collection->replies.push_back(reply.candidate);
  if (tracer_ != nullptr && collection->fwd->state.trace.sampled()) {
    tracer_->AddEvent(TraceContext{collection->fwd->state.trace.trace_id,
                                   collection->collection_span},
                      TraceEventKind::kReply, network_->sim().Now(),
                      reply.candidate.id);
  }
}

void Diknn::OnRendezvous(Node* node, const RendezvousMessage& msg) {
  // Statistics for a completed query can never be merged again; buffering
  // them would leave residue until the age-based eviction below.
  if (!QueryActive(msg.query_id)) {
    ++stats_.stale_branches_dropped;
    return;
  }
  std::vector<HeardRendezvous>& heard = heard_rendezvous_[node->id()];
  const SimTime now = network_->sim().Now();
  // Bound the per-node buffer: drop stale entries (older than any query
  // could still be running).
  std::erase_if(heard, [&](const HeardRendezvous& h) {
    return now - h.heard_at > params_.query_timeout;
  });
  heard.push_back(HeardRendezvous{msg, now});
}

void Diknn::FinishCollection(uint64_t key) {
  AllocScope scope(&knn_allocs_);
  Collection* found = collections_.find(key);
  if (found == nullptr) return;
  Collection collection = std::move(*found);
  collections_.erase(key);

  Node* node = network_->node(collection.qnode);
  SectorState& state = collection.fwd->state;
  const KnnQuery& query = state.query;
  const bool traced = tracer_ != nullptr && state.trace.sampled();
  if (traced) {
    const SimTime tnow = network_->sim().Now();
    tracer_->EndSpan(state.trace.trace_id, collection.collection_span, tnow);
    tracer_->EndSpan(state.trace.trace_id, collection.hop_span, tnow);
  }

  // The Q-node is a sensor too: contribute its own reading once.
  FlatSet<NodeId>& replied = RepliedFor(query.id);
  if (!node->is_infrastructure() && !replied.contains(node->id())) {
    replied.insert(node->id());
    KnnCandidate self;
    self.id = node->id();
    self.position = node->Position();
    self.speed = node->Speed();
    self.sampled_at = network_->sim().Now();
    collection.replies.push_back(self);
  }

  // Merge the collected replies.
  for (const KnnCandidate& c : collection.replies) {
    state.best.push_back(c);
    state.max_speed_seen = std::max(state.max_speed_seen, c.speed);
  }
  state.explored += static_cast<int>(collection.replies.size());
  PruneCandidates(&state.best, query.q, query.k);
  state.sector_explored[state.sector] = state.explored;
  RecycleReplies(&collection.replies);

  // Rendezvous and dynamic boundary adjustment (Section 4.3). Heard
  // statistics merge at every Q-node; the broadcast itself happens at
  // ring transitions (where adjacent sectors' adj-segments meet).
  const int ring = RebuildItinerary(state).RingAt(state.progress);
  if (params_.rendezvous) {
    if (ring != state.last_rendezvous_ring) {
      state.last_rendezvous_ring = ring;
      auto rendezvous = MessagePool::Make<RendezvousMessage>();
      rendezvous->query_id = query.id;
      rendezvous->sector = state.sector;
      rendezvous->ring = ring;
      rendezvous->explored = state.explored;
      node->SendBroadcast(MessageType::kDiknnRendezvous,
                          std::move(rendezvous), kRendezvousBytes,
                          EnergyCategory::kQuery, {}, state.trace);
      ++stats_.rendezvous_sent;
      if (traced) {
        tracer_->AddEvent(state.trace, TraceEventKind::kRendezvous,
                          network_->sim().Now(), node->id(), ring);
      }
    }
    if (AdjustBoundary(node, &state, ring)) {
      if (traced) {
        tracer_->AddEvent(state.trace, TraceEventKind::kBoundaryTruncated,
                          network_->sim().Now(), node->id(), ring);
      }
      FinishSector(node, &state);
      return;
    }
  }

  ForwardAlongItinerary(node, std::move(collection.fwd));
}

bool Diknn::AdjustBoundary(Node* node, SectorState* state, int ring) {
  // Merge statistics heard from adjacent sub-itineraries at rendezvous.
  const std::vector<HeardRendezvous>* heard =
      heard_rendezvous_.find(node->id());
  if (heard != nullptr) {
    for (const HeardRendezvous& h : *heard) {
      if (h.msg.query_id != state->query.id) continue;
      if (h.msg.sector == state->sector) continue;
      int& slot = state->sector_explored[h.msg.sector];
      slot = std::max(slot, h.msg.explored);
      ++stats_.rendezvous_merged;
    }
  }

  // Stop early once the interpolated network-wide exploration already
  // covers k nodes ("itinerary traversals can stop immediately if k
  // nearest neighbors are discovered before reaching the perimeter").
  // `ring` is the ring being *entered*; only rings before it have been
  // fully swept, and the k nearest are guaranteed inside the swept region
  // only if at least one full ring beyond the init segment is done.
  const int completed_rings = ring - 1;
  if (completed_rings >= 1 &&
      EstimateTotalExplored(state->sector_explored) >= state->query.k) {
    ++stats_.boundary_truncations;
    return true;
  }
  return false;
}

void Diknn::ForwardAlongItinerary(Node* node,
                                  std::shared_ptr<ForwardMessage> fwd) {
  SectorState& state = fwd->state;
  // Stale traversal work: the query completed (or timed out) while this
  // branch was still in flight. Dropping it here, instead of letting it
  // probe its way to the sink, is what keeps timed-out queries from
  // burning energy for results nobody will read.
  if (!QueryActive(state.query.id)) {
    ++stats_.stale_branches_dropped;
    return;
  }
  // A Q-node killed between receiving the state and acting on it (churn,
  // fault injection) must not keep routing.
  const bool traced = tracer_ != nullptr && state.trace.sampled();
  if (!node->alive()) {
    ++stats_.dead_node_drops;
    if (traced) {
      tracer_->AddEvent(state.trace, TraceEventKind::kDeadNodeDrop,
                        network_->sim().Now(), node->id());
    }
    return;
  }
  const SimTime now = network_->sim().Now();
  const double step = params_.step_fraction * network_->config().radio_range_m;

  // `itinerary` is the member scratch; in-loop boundary adjustments
  // rebuild it in place (same object, no reseating needed).
  Itinerary& itinerary = RebuildItinerary(state);
  double next_s = state.progress + step;
  int skips = 0;

  while (true) {
    if (next_s > itinerary.TotalLength()) {
      // Reached the end of the sub-itinerary. First: continue if the
      // rendezvous statistics say too few nodes were found (boundary
      // under-estimate / spatial irregularity).
      if (params_.rendezvous && state.extra_rings < params_.max_extra_rings &&
          EstimateTotalExplored(state.sector_explored) < state.query.k) {
        ++state.extra_rings;
        ++stats_.boundary_extensions;
        if (traced) {
          tracer_->AddEvent(state.trace, TraceEventKind::kBoundaryExtended,
                            now, node->id(), state.extra_rings);
        }
        RebuildItinerary(state);
        continue;
      }
      // Second: the mobility assurance expansion R' = R + g*(te-ts)*mu
      // (Section 4.3), applied once by the last Q-node.
      if (params_.mobility_assurance && !state.assurance_applied) {
        state.assurance_applied = true;
        const double expansion = state.query.assurance_gain *
                                 (now - state.dissemination_start) *
                                 state.max_speed_seen;
        if (expansion > EffectiveWidth() / 2.0) {
          state.radius += expansion;
          ++stats_.assurance_expansions;
          if (traced) {
            tracer_->AddEvent(state.trace, TraceEventKind::kAssuranceExpanded,
                              now, node->id(), expansion);
          }
          RebuildItinerary(state);
          if (next_s <= itinerary.TotalLength()) continue;
        }
      }
      FinishSector(node, &state);
      return;
    }

    // Anchors outside the deployment field are known-empty: glide past
    // them along the conceptual path without spending void-skip budget
    // (boundary circles near the field edge always have such dead arcs).
    const Rect& field = network_->config().field;
    bool exhausted = false;
    Point anchor = itinerary.PointAt(next_s);
    while (!field.Contains(anchor)) {
      next_s += step;
      if (next_s > itinerary.TotalLength()) {
        exhausted = true;
        break;
      }
      anchor = itinerary.PointAt(next_s);
    }
    if (exhausted) continue;  // End-of-itinerary handling at loop top.

    // Pick the neighbor closest to the next anchor point that actually
    // makes progress toward it.
    NodeId next_id = kInvalidNodeId;
    double best_d = Distance(node->Position(), anchor);
    const double tolerance = EffectiveWidth() / 2.0;
    node->neighbors().ForEachFresh(now, [&](const NeighborEntry& n) {
      const double d = Distance(n.position, anchor);
      if (d < best_d || d <= tolerance) {
        if (next_id == kInvalidNodeId || d < best_d) {
          best_d = d;
          next_id = n.id;
        }
      }
    });

    if (next_id == kInvalidNodeId) {
      // Itinerary void: skip ahead along the conceptual path (perimeter
      // forwarding stand-in; see Fig. 7 discussion).
      ++stats_.voids_encountered;
      ++state.void_skips_total;
      ++skips;
      if (traced) {
        tracer_->AddEvent(state.trace, TraceEventKind::kVoidSkip, now,
                          node->id(), next_s);
      }
      if (skips > params_.max_void_skips) {
        ++stats_.sectors_abandoned;
        FinishSector(node, &state);
        return;
      }
      next_s += step;
      continue;
    }

    // Forward the state to the chosen next Q-node. The pre-advance copy
    // rides in its own pooled envelope, released unused on success.
    auto retry = MessagePool::MakeReusable<ForwardMessage>();
    retry->state = state;
    state.progress = next_s;
    ++state.hop_count;
    const TraceContext fwd_ctx = state.trace;
    const size_t bytes = state.WireBytes();
    node->SendUnicast(
        next_id, MessageType::kDiknnForward, std::move(fwd), bytes,
        EnergyCategory::kQuery,
        [this, node, next_id, retry](bool success) mutable {
          if (success) return;
          AllocScope scope(&knn_allocs_);
          SectorState& retry_state = retry->state;
          const bool retraced =
              tracer_ != nullptr && retry_state.trace.sampled();
          // A node killed by churn mid-retry must not keep routing
          // (mirrors the liveness check on the probe-reply path).
          if (!node->alive()) {
            ++stats_.dead_node_drops;
            if (retraced) {
              tracer_->AddEvent(retry_state.trace,
                                TraceEventKind::kDeadNodeDrop,
                                network_->sim().Now(), node->id());
            }
            return;
          }
          // Skip the retry if the "failed" recipient actually received the
          // frame (lost ACK) and the traversal is already ahead of us.
          const uint64_t key = CollectionKey(retry_state.query.id,
                                             retry_state.sector);
          const int* last = last_hop_seen_.find(key);
          if (last != nullptr && *last > retry_state.hop_count) {
            return;
          }
          if (retraced) {
            tracer_->AddEvent(retry_state.trace, TraceEventKind::kRetry,
                              network_->sim().Now(), node->id(), next_id);
          }
          node->neighbors().Remove(next_id);
          ForwardAlongItinerary(node, std::move(retry));
        },
        fwd_ctx);
    return;
  }
}

void Diknn::FinishSector(Node* node, SectorState* state_in) {
  SectorState& state = *state_in;
  // A sector finishing after CompleteQuery would re-insert a
  // finished_sectors_ key whose only eraser (CompleteQuery) already ran.
  if (!QueryActive(state.query.id)) {
    ++stats_.stale_branches_dropped;
    return;
  }
  const uint64_t key = CollectionKey(state.query.id, state.sector);
  if (!finished_sectors_.insert(key)) return;  // Fork branch.
  ++stats_.sector_results_sent;

  // The reply-route span is a child of the sector span; the sink closes
  // both when the bundle arrives (OnSectorResult walks to the parent).
  SpanId reply_span = 0;
  if (tracer_ != nullptr && state.trace.sampled()) {
    reply_span = tracer_->BeginSpan(state.trace, SpanKind::kReplyRoute,
                                    network_->sim().Now(), state.sector,
                                    node->id());
  }

  // A sector that never placed a Q-node (its cone lies outside the
  // deployment field, or is empty) still announces its zero exploration —
  // without this, the other sectors' interpolation assumes it explored as
  // much as they did and they stop too early (edge-of-field queries).
  if (params_.rendezvous && state.hop_count == 0 && node->alive()) {
    auto rendezvous = MessagePool::Make<RendezvousMessage>();
    rendezvous->query_id = state.query.id;
    rendezvous->sector = state.sector;
    rendezvous->ring = 0;
    rendezvous->explored = state.explored;
    node->SendBroadcast(MessageType::kDiknnRendezvous, std::move(rendezvous),
                        kRendezvousBytes, EnergyCategory::kQuery, {},
                        state.trace);
    ++stats_.rendezvous_sent;
  }
  auto result = MessagePool::MakeReusable<SectorResult>();
  result->query_id = state.query.id;
  result->sector = state.sector;
  result->candidates = state.best;  // Copy into the recycled buffer.
  result->explored = state.explored;
  const size_t bytes =
      16 + result->candidates.size() * kCandidateBytes;
  gpsr_->Send(node, state.query.sink_position, MessageType::kDiknnResult,
              std::move(result), bytes, EnergyCategory::kQuery,
              /*collect_info=*/false, state.query.sink,
              /*cheap_delivery=*/false,
              TraceContext{state.trace.trace_id, reply_span});
}

void Diknn::OnSectorResult(Node* node, const GeoRoutedMessage& msg) {
  const auto* result = static_cast<const SectorResult*>(msg.inner.get());
  Ledger::Entry* pending = ledger_.Find(result->query_id);
  if (pending == nullptr) return;  // Late result after completion.
  if (pending->sink != node->id()) {
    // The bundle landed at the wrong node (sink moved out of reach);
    // the query-timeout path will close the query.
    DIKNN_LOG(kDebug) << "sector result for query " << result->query_id
                      << " stranded at node " << node->id();
    return;
  }
  ++stats_.sector_results_received;
  if (tracer_ != nullptr && msg.trace.sampled()) {
    const SimTime tnow = network_->sim().Now();
    // msg.trace points at the reply-route span; its parent is the sector
    // span opened at home-node arrival — close both at the sink.
    tracer_->EndSpan(msg.trace.trace_id, msg.trace.span_id, tnow);
    tracer_->EndSpan(msg.trace.trace_id,
                     tracer_->ParentOf(msg.trace.trace_id, msg.trace.span_id),
                     tnow);
  }
  for (const KnnCandidate& c : result->candidates) {
    pending->candidates.push_back(c);
  }
  PruneCandidates(&pending->candidates, pending->q, pending->k);
  pending->sectors_received.insert(result->sector);
  const int received = static_cast<int>(pending->sectors_received.size());
  if (received >= params_.num_sectors) {
    CompleteQuery(result->query_id, /*timed_out=*/false);
    return;
  }
  // Lost bundles should not stall the query until the hard timeout; once
  // at most two sectors are outstanding, arm a straggler grace — longer
  // at S-2 (two may still be legitimately traversing), shorter at S-1.
  // (Arming earlier would mis-fire: sectors whose cone is empty report
  // almost immediately, long before the working sectors finish.)
  if (received >= params_.num_sectors - 2) {
    const uint64_t query_id = result->query_id;
    // Scale the grace with the query's elapsed time: a sector still
    // extending through a sparse region needs proportionally longer than
    // a genuinely lost bundle deserves.
    double grace = std::max(params_.result_grace,
                            0.5 * (network_->sim().Now() -
                                   pending->issued_at));
    if (received == params_.num_sectors - 2) grace *= 2.0;
    ledger_.ArmGrace(pending, grace, [this, query_id]() {
      CompleteQuery(query_id, /*timed_out=*/false);
    });
  }
}

void Diknn::CompleteQuery(uint64_t query_id, bool timed_out) {
  AllocScope scope(&knn_allocs_);
  ledger_.Complete(query_id, timed_out, [&](Ledger::Entry& pending,
                                            KnnResult& result) {
    if (timed_out) {
      ++stats_.timeouts;
    } else {
      ++stats_.queries_completed;
    }
    result.candidates = pending.candidates;
    PruneCandidates(&result.candidates, pending.q, pending.k);

    if (tracer_ != nullptr && pending.trace.sampled()) {
      const SimTime tnow = network_->sim().Now();
      if (timed_out) {
        tracer_->AddEvent(pending.trace, TraceEventKind::kTimeout, tnow,
                          pending.sink);
      }
      // Close every span still open on this trace (straggler sectors,
      // the root). The workload driver's own CloseTrace (same sim time,
      // via the handler) is idempotent on top of this.
      tracer_->CloseTrace(pending.trace.trace_id, tnow);
    }

    RecycleReplied(query_id);
    for (int s = 0; s < params_.num_sectors; ++s) {
      const uint64_t key = CollectionKey(query_id, s);
      // An open collection window would keep the sector traversing,
      // probing and routing a result nobody reads; close it and cancel
      // its finish event.
      if (Collection* open = collections_.find(key)) {
        network_->sim().Cancel(open->finish_event);
        RecycleReplies(&open->replies);
        collections_.erase(key);
        ++stats_.collections_cancelled;
      }
      last_hop_seen_.erase(key);
      finished_sectors_.erase(key);
    }
    // Scrub the per-node rendezvous buffers: entries for this query can
    // never be merged again, and age-based eviction only runs when a node
    // happens to hear another broadcast. The vectors themselves stay in
    // the map — their capacity serves the node's next query.
    heard_rendezvous_.ForEach(
        [query_id](NodeId, std::vector<HeardRendezvous>& heard) {
          std::erase_if(heard, [query_id](const HeardRendezvous& h) {
            return h.msg.query_id == query_id;
          });
        });
    if (completion_observer_) completion_observer_(query_id, timed_out);
  });
}

DiknnLifecycleCounts Diknn::lifecycle_counts() const {
  DiknnLifecycleCounts counts;
  counts.pending = ledger_.size();
  counts.collections = collections_.size();
  counts.last_hop_seen = last_hop_seen_.size();
  counts.finished_sectors = finished_sectors_.size();
  counts.replied_queries = replied_.size();
  replied_.ForEach([&](uint64_t, const FlatSet<NodeId>& nodes) {
    counts.replied_entries += nodes.size();
  });
  heard_rendezvous_.ForEach(
      [&](NodeId, const std::vector<HeardRendezvous>& heard) {
        counts.heard_rendezvous_entries += heard.size();
      });
  return counts;
}

size_t Diknn::ResidueFor(uint64_t query_id) const {
  size_t residue =
      (ledger_.Contains(query_id) ? 1 : 0) + replied_.count(query_id);
  const auto owned = [query_id](uint64_t key) {
    return (key >> 8) == query_id;
  };
  collections_.ForEach([&](uint64_t key, const Collection&) {
    if (owned(key)) ++residue;
  });
  last_hop_seen_.ForEach([&](uint64_t key, const int&) {
    if (owned(key)) ++residue;
  });
  finished_sectors_.ForEach([&](uint64_t key) {
    if (owned(key)) ++residue;
  });
  heard_rendezvous_.ForEach(
      [&](NodeId, const std::vector<HeardRendezvous>& heard) {
        for (const HeardRendezvous& h : heard) {
          if (h.msg.query_id == query_id) ++residue;
        }
      });
  return residue;
}

}  // namespace diknn
