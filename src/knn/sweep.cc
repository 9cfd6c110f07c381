#include "knn/sweep.h"

#include <algorithm>
#include <cmath>

#include "knn/aggregate.h"
#include "knn/itinerary.h"
#include "knn/window.h"
#include "net/packet_pool.h"

namespace diknn {

namespace {
constexpr size_t kProbeBytes = 30;
}  // namespace

SerpentinePath::SerpentinePath(const Rect& window, double spacing)
    : window_(window), spacing_(spacing) {
  // Scan lines at heights min.y + w/2, min.y + 3w/2, ..., covering the
  // window with a w/2 margin above and below each line.
  num_lines_ = std::max(
      1, static_cast<int>(std::ceil(window.Height() / spacing_)));
  total_length_ =
      num_lines_ * window_.Width() + (num_lines_ - 1) * spacing_;
}

Point SerpentinePath::PointAt(double s) const {
  s = std::clamp(s, 0.0, total_length_);
  const double segment = window_.Width() + spacing_;  // Line + riser.
  int line = static_cast<int>(s / segment);
  if (line >= num_lines_) line = num_lines_ - 1;
  const double offset = s - line * segment;

  const double y0 = std::min(window_.min.y + spacing_ / 2.0, window_.max.y);
  const double y = std::min(y0 + line * spacing_, window_.max.y);
  const bool rightward = (line % 2) == 0;

  if (offset <= window_.Width()) {
    const double x = rightward ? window_.min.x + offset
                               : window_.max.x - offset;
    return {x, y};
  }
  // Riser between this line and the next.
  const double up = offset - window_.Width();
  const double x = rightward ? window_.max.x : window_.min.x;
  return {x, std::min(y + up, window_.max.y)};
}

template <typename Payload>
ItinerarySweep<Payload>::ItinerarySweep(Network* network, GpsrRouting* gpsr,
                                        Payload payload,
                                        WindowQueryParams params)
    : network_(network),
      gpsr_(gpsr),
      payload_(payload),
      params_(params),
      ledger_(&network->sim()) {}

template <typename Payload>
double ItinerarySweep<Payload>::EffectiveWidth() const {
  return params_.width > 0.0
             ? params_.width
             : DefaultItineraryWidth(network_->config().radio_range_m);
}

template <typename Payload>
FlatSet<NodeId>& ItinerarySweep<Payload>::RepliedFor(uint64_t query_id) {
  auto [kv, inserted] = replied_.TryEmplace(query_id);
  if (inserted && !replied_freelist_.empty()) {
    kv->second = std::move(replied_freelist_.back());
    replied_freelist_.pop_back();
  }
  return kv->second;
}

template <typename Payload>
void ItinerarySweep<Payload>::RecycleReplied(uint64_t query_id) {
  FlatSet<NodeId>* replied = replied_.find(query_id);
  if (replied == nullptr) return;
  replied->clear();
  replied_freelist_.push_back(std::move(*replied));
  replied_.erase(query_id);
}

template <typename Payload>
void ItinerarySweep<Payload>::RecycleReplies(Value* replies) {
  Payload::Clear(replies);
  replies_freelist_.push_back(std::move(*replies));
}

template <typename Payload>
void ItinerarySweep<Payload>::Install() {
  gpsr_->RegisterDelivery(
      Payload::kQuery, [this](Node* node, const GeoRoutedMessage& msg) {
        AllocScope scope(&knn_allocs_);
        OnEntryArrival(node, msg);
      });
  gpsr_->RegisterDelivery(
      Payload::kResult, [this](Node* node, const GeoRoutedMessage& msg) {
        AllocScope scope(&knn_allocs_);
        OnResult(node, msg);
      });
  for (Node* node : network_->AllNodes()) {
    node->RegisterHandler(Payload::kProbe, [this, node](const Packet& p) {
      AllocScope scope(&knn_allocs_);
      OnProbe(node, *static_cast<const ProbeMessage*>(p.payload.get()));
    });
    node->RegisterHandler(Payload::kReply, [this, node](const Packet& p) {
      AllocScope scope(&knn_allocs_);
      OnReply(node, *static_cast<const ReplyMessage*>(p.payload.get()));
    });
    node->RegisterHandler(Payload::kForward, [this, node](const Packet& p) {
      AllocScope scope(&knn_allocs_);
      const auto* fwd = static_cast<const ForwardMessage*>(p.payload.get());
      auto copy = MessagePool::MakeReusable<ForwardMessage>();
      copy->state = fwd->state;
      StartQNode(node, std::move(copy));
    });
  }
}

template <typename Payload>
void ItinerarySweep<Payload>::IssueQuery(NodeId sink, const Rect& region,
                                         Handler handler) {
  AllocScope scope(&knn_allocs_);
  Node* sink_node = network_->node(sink);
  SweepQuery query;
  query.id = ledger_.NextId();
  query.region = region;
  query.sink = sink;
  query.sink_position = sink_node->Position();

  // Budget the timeout for the sweep's actual length: one Q-node hop per
  // step_fraction * r of path, at roughly half a second per hop, plus
  // routing slack.
  const SerpentinePath path(region, EffectiveWidth());
  const double per_hop = 0.5;
  const double expected_hops =
      path.TotalLength() /
      (params_.step_fraction * network_->config().radio_range_m);
  const SimTime timeout =
      std::max(params_.query_timeout, expected_hops * per_hop + 4.0);

  const uint64_t id = query.id;
  ledger_.Open(id, sink, std::move(handler), timeout,
               [this, id]() { OnTimeout(id); })
      .region = region;
  ++stats_.queries_issued;

  // Enter the sweep at the start of the serpentine path (the region's
  // lower-left scan line).
  auto bootstrap = MessagePool::Make<QueryBootstrap>();
  bootstrap->query = query;
  gpsr_->Send(sink_node, path.PointAt(0.0), Payload::kQuery,
              std::move(bootstrap), Payload::kBootstrapBytes,
              EnergyCategory::kQuery);
}

template <typename Payload>
void ItinerarySweep<Payload>::OnEntryArrival(Node* node,
                                             const GeoRoutedMessage& msg) {
  const auto* bootstrap =
      static_cast<const QueryBootstrap*>(msg.inner.get());
  auto fwd = MessagePool::MakeReusable<ForwardMessage>();
  fwd->state.query = bootstrap->query;
  StartQNode(node, std::move(fwd));
}

template <typename Payload>
void ItinerarySweep<Payload>::StartQNode(
    Node* node, std::shared_ptr<ForwardMessage> fwd) {
  SweepState& state = fwd->state;
  // A forward that outlived its query must not re-seed last_hop_seen_ or
  // open a new collection; the sweep dies here.
  if (!QueryActive(state.query.id)) {
    ++stats_.stale_drops;
    return;
  }
  // Fork suppression, as in DIKNN (see diknn.h).
  {
    auto [kv, inserted] =
        last_hop_seen_.TryEmplace(state.query.id, state.hop_count);
    if (!inserted) {
      if (state.hop_count <= kv->second) return;
      kv->second = state.hop_count;
    }
  }
  ++stats_.qnode_hops;

  const SimTime now = network_->sim().Now();
  int expected = 0;
  node->neighbors().ForEachFresh(now, [&](const NeighborEntry& n) {
    if (state.query.region.Contains(n.position)) ++expected;
  });
  const double window_s =
      params_.time_unit * std::clamp(expected / 2 + 1, 3, 20);

  auto probe = MessagePool::Make<ProbeMessage>();
  probe->query_id = state.query.id;
  probe->region = state.query.region;
  probe->qnode_position = node->Position();
  probe->reference_angle =
      AngleOf(node->Position(), state.query.region.Center());
  probe->collect_window = window_s;

  const uint64_t id = state.query.id;
  Collection collection;
  collection.fwd = std::move(fwd);
  collection.qnode = node->id();
  if (!replies_freelist_.empty()) {
    collection.replies = std::move(replies_freelist_.back());
    replies_freelist_.pop_back();
  }
  // A deeper fork supersedes an open collection; cancel the superseded
  // finish timer so it cannot close the new collection early.
  if (Collection* old = collections_.find(id)) {
    network_->sim().Cancel(old->finish_event);
    RecycleReplies(&old->replies);
  }
  collections_.InsertOrAssign(id, std::move(collection));

  node->SendBroadcast(Payload::kProbe, std::move(probe), kProbeBytes,
                      EnergyCategory::kQuery);
  collections_.find(id)->finish_event = network_->sim().ScheduleAfter(
      window_s + 5.0 * params_.time_unit,
      [this, id]() { FinishCollection(id); });
}

template <typename Payload>
void ItinerarySweep<Payload>::OnProbe(Node* node, const ProbeMessage& probe) {
  if (node->is_infrastructure()) return;
  if (!QueryActive(probe.query_id)) {
    ++stats_.stale_drops;
    return;
  }
  if (!probe.region.Contains(node->Position())) return;
  FlatSet<NodeId>& replied = RepliedFor(probe.query_id);
  if (replied.contains(node->id())) return;
  replied.insert(node->id());

  const double alpha = NormalizeAngle(
      AngleOf(probe.qnode_position, node->Position()) -
      probe.reference_angle);
  const double delay = (alpha / kTwoPi) * probe.collect_window;
  const uint64_t query_id = probe.query_id;
  // The un-mark paths below must not use RepliedFor: after the query
  // completes and its replied_ entry is torn down, re-creating it would
  // leave permanent residue.
  const auto unmark = [this](uint64_t qid, NodeId nid) {
    if (FlatSet<NodeId>* r = replied_.find(qid)) r->erase(nid);
  };
  network_->sim().ScheduleAfter(delay, [this, node, query_id, unmark]() {
    AllocScope scope(&knn_allocs_);
    if (!node->alive()) return;
    Collection* collection = collections_.find(query_id);
    if (collection == nullptr) {
      unmark(query_id, node->id());
      return;
    }
    auto reply = MessagePool::Make<ReplyMessage>();
    reply->query_id = query_id;
    reply->reading = payload_.Read(node, network_->sim().Now());
    node->SendUnicast(collection->qnode, Payload::kReply, std::move(reply),
                      Payload::kReplyBytes, EnergyCategory::kQuery,
                      [query_id, node, unmark](bool ok) {
                        // A failed send may still have delivered the
                        // reply (only its ACKs lost); see
                        // kReofferFailedReplies in sweep.h.
                        if (!ok && Payload::kReofferFailedReplies) {
                          unmark(query_id, node->id());
                        }
                      });
    ++stats_.replies;
  });
}

template <typename Payload>
void ItinerarySweep<Payload>::OnReply(Node* node, const ReplyMessage& reply) {
  Collection* collection = collections_.find(reply.query_id);
  if (collection == nullptr || collection->qnode != node->id()) return;
  Payload::Add(&collection->replies, reply.reading);
}

template <typename Payload>
void ItinerarySweep<Payload>::FinishCollection(uint64_t query_id) {
  AllocScope scope(&knn_allocs_);
  Collection* found = collections_.find(query_id);
  if (found == nullptr) return;
  Collection collection = std::move(*found);
  collections_.erase(query_id);
  if (!QueryActive(query_id)) {
    ++stats_.stale_drops;
    RecycleReplies(&collection.replies);
    return;
  }

  // The collection window's replies first, then the Q-node's own
  // reading: the aggregate's floating-point sum depends on this order.
  Node* node = network_->node(collection.qnode);
  SweepState& state = collection.fwd->state;
  Payload::Merge(&state.value, collection.replies);
  if (!node->is_infrastructure() &&
      state.query.region.Contains(node->Position()) &&
      RepliedFor(query_id).insert(node->id())) {
    Payload::Add(&state.value, payload_.Read(node, network_->sim().Now()));
  }
  RecycleReplies(&collection.replies);
  ForwardAlongSweep(node, std::move(collection.fwd));
}

template <typename Payload>
void ItinerarySweep<Payload>::ForwardAlongSweep(
    Node* node, std::shared_ptr<ForwardMessage> fwd) {
  SweepState& state = fwd->state;
  // Also reached from unicast-failure retries, which may fire after the
  // query completed; a dead query's sweep must not keep hopping.
  if (!QueryActive(state.query.id)) {
    ++stats_.stale_drops;
    return;
  }
  const SimTime now = network_->sim().Now();
  const double step =
      params_.step_fraction * network_->config().radio_range_m;
  const SerpentinePath path(state.query.region, EffectiveWidth());

  double next_s = state.progress + step;
  int skips = 0;
  while (true) {
    if (next_s > path.TotalLength()) {
      FinishSweep(node, state);
      return;
    }
    const Point anchor = path.PointAt(next_s);
    NodeId next_id = kInvalidNodeId;
    double best_d = Distance(node->Position(), anchor);
    const double tolerance = EffectiveWidth() / 2.0;
    node->neighbors().ForEachFresh(now, [&](const NeighborEntry& n) {
      const double d = Distance(n.position, anchor);
      if ((d < best_d || d <= tolerance) &&
          (next_id == kInvalidNodeId || d < best_d)) {
        best_d = d;
        next_id = n.id;
      }
    });
    if (next_id == kInvalidNodeId) {
      ++stats_.voids;
      if (++skips > params_.max_void_skips) {
        FinishSweep(node, state);
        return;
      }
      next_s += step;
      continue;
    }

    // Pre-advance copy in its own pooled envelope, released on success.
    // The state is far past the inline-callback budget, so capturing it
    // by value would heap-allocate on every hop.
    auto retry = MessagePool::MakeReusable<ForwardMessage>();
    retry->state = state;
    state.progress = next_s;
    ++state.hop_count;
    const size_t bytes = Payload::CarriedBytes(state.value);
    node->SendUnicast(next_id, Payload::kForward, std::move(fwd), bytes,
                      EnergyCategory::kQuery,
                      [this, node, next_id, retry](bool ok) mutable {
                        if (ok) return;
                        AllocScope scope(&knn_allocs_);
                        const int* last =
                            last_hop_seen_.find(retry->state.query.id);
                        if (last != nullptr &&
                            *last > retry->state.hop_count) {
                          return;  // The traversal is already ahead.
                        }
                        node->neighbors().Remove(next_id);
                        ForwardAlongSweep(node, std::move(retry));
                      });
    return;
  }
}

template <typename Payload>
void ItinerarySweep<Payload>::FinishSweep(Node* node,
                                          const SweepState& state) {
  auto result = MessagePool::MakeReusable<ResultMessage>();
  result->query_id = state.query.id;
  result->value = state.value;  // Copy into the recycled buffer.
  const size_t bytes = Payload::ResultBytes(result->value);
  gpsr_->Send(node, state.query.sink_position, Payload::kResult,
              std::move(result), bytes, EnergyCategory::kQuery, false,
              state.query.sink);
}

template <typename Payload>
void ItinerarySweep<Payload>::OnResult(Node* node,
                                       const GeoRoutedMessage& msg) {
  const auto* result = static_cast<const ResultMessage*>(msg.inner.get());
  const uint64_t id = result->query_id;
  if (ledger_.AtSink(id, node->id()) == nullptr) return;
  ledger_.Complete(id, false, [&](typename Ledger::Entry& pending,
                                  Result& out) {
    ++stats_.queries_completed;
    Payload::Deliver(result->value, pending.region, &out);
    TeardownQueryState(id);
  });
}

template <typename Payload>
void ItinerarySweep<Payload>::OnTimeout(uint64_t query_id) {
  AllocScope scope(&knn_allocs_);
  ledger_.Complete(query_id, true, [&](typename Ledger::Entry&, Result&) {
    ++stats_.timeouts;
    TeardownQueryState(query_id);
  });
}

template <typename Payload>
void ItinerarySweep<Payload>::TeardownQueryState(uint64_t query_id) {
  RecycleReplied(query_id);
  last_hop_seen_.erase(query_id);
  if (Collection* open = collections_.find(query_id)) {
    network_->sim().Cancel(open->finish_event);
    RecycleReplies(&open->replies);
    collections_.erase(query_id);
    ++stats_.collections_cancelled;
  }
}

template class ItinerarySweep<WindowPayload>;
template class ItinerarySweep<AggregatePayload>;

}  // namespace diknn
