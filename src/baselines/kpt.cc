#include "baselines/kpt.h"

#include <algorithm>
#include <cassert>

#include "core/alloc_probe.h"
#include "core/logging.h"
#include "knn/knnb.h"

namespace diknn {

namespace {

constexpr size_t kQueryBytes = 26;
constexpr size_t kTreeBuildBytes = 46;
constexpr size_t kCandidateBytes = 12;

}  // namespace

KptKnnb::KptKnnb(Network* network, GpsrRouting* gpsr, KptParams params)
    : network_(network),
      gpsr_(gpsr),
      params_(params),
      ledger_(&network->sim()) {}

void KptKnnb::Install() {
  gpsr_->RegisterDelivery(
      MessageType::kKptQuery,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnHomeNodeArrival(node, msg);
      });
  gpsr_->RegisterDelivery(
      MessageType::kKptResult,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnResult(node, msg);
      });
  // Repaired / stray aggregates travel back by geo-routing; merge them
  // wherever they land (ideally the home node). `from` is invalid so the
  // stray path below cannot re-forward forever.
  gpsr_->RegisterDelivery(
      MessageType::kKptAggregate,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnAggregate(node, kInvalidNodeId,
                    *static_cast<const AggregateMessage*>(msg.inner.get()));
      });
  // Frame handlers run inside the channel's net scope, but tree building
  // and aggregation are not the packet plane's work (GpsrRouting::Deliver
  // pauses the deliveries above the same way).
  for (Node* node : network_->AllNodes()) {
    node->RegisterHandler(MessageType::kKptTreeBuild,
                          [this, node](const Packet& p) {
                            AllocScopePause protocol_work;
                            OnTreeBuild(node, p);
                          });
    node->RegisterHandler(
        MessageType::kKptAggregate, [this, node](const Packet& p) {
          AllocScopePause protocol_work;
          OnAggregate(node, p.src,
                      *static_cast<const AggregateMessage*>(
                          p.payload.get()));
        });
  }
}

void KptKnnb::IssueQuery(NodeId sink, Point q, int k,
                         ResultHandler handler) {
  Node* sink_node = network_->node(sink);
  KnnQuery query;
  query.id = ledger_.NextId();
  query.q = q;
  query.k = std::max(1, k);
  query.sink = sink;
  query.sink_position = sink_node->Position();

  // Drop the tree state of queries that have left the ledger (answered
  // or timed out). A query still in flight keeps its tree however many
  // queries were issued after it.
  std::erase_if(tree_, [this](const auto& kv) {
    return ledger_.Find(kv.first >> 20) == nullptr;
  });

  const uint64_t id = query.id;
  Ledger::Entry& pending = ledger_.Open(
      id, sink, std::move(handler), params_.query_timeout, [this, id]() {
        ledger_.Complete(id, true, [this](Ledger::Entry&, KnnResult&) {
          ++stats_.timeouts;
        });
      });
  pending.q = query.q;
  pending.k = query.k;
  ++stats_.queries_issued;

  auto bootstrap = std::make_shared<QueryBootstrap>();
  bootstrap->query = query;
  gpsr_->Send(sink_node, q, MessageType::kKptQuery, std::move(bootstrap),
              kQueryBytes, EnergyCategory::kQuery, /*collect_info=*/true);
}

void KptKnnb::OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg) {
  const auto* bootstrap =
      static_cast<const QueryBootstrap*>(msg.inner.get());
  const KnnQuery& query = bootstrap->query;

  const double max_radius = KnnbMaxRadius(network_->config().field);
  const double r = network_->config().radio_range_m;
  double radius;
  if (params_.conservative_boundary) {
    // Original KPT: R = k * MHD, clamped to the field so the flood at
    // least terminates (the paper notes it exceeds the field already at
    // k = 20 on the default setup).
    radius = std::min(
        KptConservativeRadius(query.k, params_.mean_hop_distance),
        max_radius);
  } else {
    radius = Knnb(msg.info_list, query.q, r, query.k, max_radius).radius;
  }

  const uint64_t key = TreeKey(query.id, node->id());
  TreeNode state;
  state.query = query;
  state.parent = kInvalidNodeId;
  state.level = 0;
  state.depth_estimate =
      static_cast<int>(std::ceil(radius / r)) + 1;
  state.home = node->id();
  state.home_position = node->Position();
  if (!node->is_infrastructure()) {
    KnnCandidate self;
    self.id = node->id();
    self.position = node->Position();
    self.speed = node->Speed();
    self.sampled_at = network_->sim().Now();
    state.buffer.push_back(self);
  }

  // Flood the tree-construction message inside the boundary.
  auto build = std::make_shared<TreeBuildMessage>();
  build->query = query;
  build->radius = radius;
  build->level = 0;
  build->depth_estimate = state.depth_estimate;
  build->home = node->id();
  build->home_position = node->Position();
  node->SendBroadcast(MessageType::kKptTreeBuild, std::move(build),
                      kTreeBuildBytes, EnergyCategory::kQuery);
  ++stats_.build_broadcasts;

  // Home deadline: enough slots for the deepest leaf to bubble up.
  const double deadline =
      params_.leaf_wait +
      (state.depth_estimate + 2) * params_.agg_slot;
  state.deadline_event = network_->sim().ScheduleAfter(
      deadline, [this, key]() { MaybeSendUp(key); });
  tree_[key] = std::move(state);
}

void KptKnnb::OnTreeBuild(Node* node, const Packet& packet) {
  const auto* msg =
      static_cast<const TreeBuildMessage*>(packet.payload.get());
  if (node->is_infrastructure()) return;

  const uint64_t key = TreeKey(msg->query.id, node->id());
  if (tree_.contains(key)) return;  // Already joined under someone.

  // Not joined yet: join under the sender if we are inside the boundary.
  if (Distance(node->Position(), msg->query.q) > msg->radius) return;

  TreeNode state;
  state.query = msg->query;
  state.parent = packet.src;
  state.level = msg->level + 1;
  state.depth_estimate = msg->depth_estimate;
  state.home = msg->home;
  state.home_position = msg->home_position;
  KnnCandidate self;
  self.id = node->id();
  self.position = node->Position();
  self.speed = node->Speed();
  self.sampled_at = network_->sim().Now();
  state.buffer.push_back(self);
  ++stats_.tree_joins;

  // Tell the parent to expect our aggregate. (In a real deployment this
  // piggybacks on the rebroadcast the parent overhears; the state mirror
  // keeps it explicit.)
  const uint64_t parent_key = TreeKey(msg->query.id, packet.src);
  auto parent_it = tree_.find(parent_key);
  if (parent_it != tree_.end() && !parent_it->second.sent_up) {
    parent_it->second.expected_children.insert(node->id());
  }

  // Rebroadcast after a small jitter to recruit the next level.
  auto rebuild = std::make_shared<TreeBuildMessage>(*msg);
  rebuild->level = state.level;
  const double jitter = node->rng().Uniform(0.0, params_.build_jitter);
  network_->sim().ScheduleAfter(jitter, [this, node, rebuild]() {
    if (!node->alive()) return;
    node->SendBroadcast(MessageType::kKptTreeBuild, rebuild,
                        kTreeBuildBytes, EnergyCategory::kQuery);
    ++stats_.build_broadcasts;
  });

  // Aggregation deadline: deeper nodes fire earlier so data flows upward.
  const int levels_below =
      std::max(0, state.depth_estimate - state.level);
  const double deadline =
      params_.leaf_wait + levels_below * params_.agg_slot;
  state.deadline_event = network_->sim().ScheduleAfter(
      deadline, [this, key]() { MaybeSendUp(key); });
  tree_[key] = std::move(state);
}

void KptKnnb::MaybeSendUp(uint64_t key) {
  auto it = tree_.find(key);
  if (it == tree_.end() || it->second.sent_up) return;
  TreeNode& state = it->second;

  // Children missing at the deadline: grant one grace extension so their
  // MAC retries / repair paths can land. Tree damage (mobility) and
  // collision storms (large k) therefore stretch latency, as the paper
  // observes for KPT.
  bool missing_child = false;
  for (NodeId child : state.expected_children) {
    if (!state.reported_children.contains(child)) {
      missing_child = true;
      break;
    }
  }
  if (missing_child && state.grace_rounds < params_.max_grace_rounds) {
    ++state.grace_rounds;
    state.deadline_event = network_->sim().ScheduleAfter(
        params_.child_grace, [this, key]() { MaybeSendUp(key); });
    return;
  }

  state.sent_up = true;
  network_->sim().Cancel(state.deadline_event);

  Node* node = network_->node(static_cast<NodeId>(key & 0xfffff));
  if (state.parent == kInvalidNodeId) {
    FinishAtHome(node, &state);
  } else {
    SendAggregateUp(node, &state);
  }
}

void KptKnnb::SendAggregateUp(Node* node, TreeNode* state) {
  PruneCandidates(&state->buffer, state->query.q, state->query.k);
  auto aggregate = std::make_shared<AggregateMessage>();
  aggregate->query_id = state->query.id;
  aggregate->candidates = state->buffer;
  aggregate->home = state->home;
  aggregate->home_position = state->home_position;
  const size_t bytes = 6 + aggregate->candidates.size() * kCandidateBytes;
  ++stats_.aggregates_sent;

  // The parent was chosen at join time; if it has since gone beacon-stale
  // it is likely out of range — repair immediately rather than burning
  // MAC retries on a dead link.
  const SimTime now = network_->sim().Now();
  NodeId target = state->parent;
  if (!node->neighbors().Lookup(target, now).has_value()) {
    ++stats_.parent_losses;
    ++stats_.repairs;
    const auto substitute =
        node->neighbors().ClosestTo(state->home_position, now);
    if (!substitute.has_value()) {
      ++stats_.data_lost;
      return;
    }
    target = substitute->id;
  }

  const Point home_position = state->home_position;
  const NodeId home = state->home;
  node->SendUnicast(
      target, MessageType::kKptAggregate, aggregate, bytes,
      EnergyCategory::kQuery,
      [this, node, aggregate, bytes, home, home_position,
       target](bool success) {
        if (success) return;
        // The link failed anyway ("data may be forwarded again and again
        // between new and old tree nodes"): evict it and fall back to
        // geo-routing the partial aggregate toward the home node.
        ++stats_.parent_losses;
        ++stats_.repairs;
        node->neighbors().Remove(target);
        gpsr_->Send(node, home_position, MessageType::kKptAggregate,
                    aggregate, bytes, EnergyCategory::kQuery, false, home);
      });
}

void KptKnnb::OnAggregate(Node* node, NodeId from,
                          const AggregateMessage& msg) {
  const uint64_t key = TreeKey(msg.query_id, node->id());
  auto it = tree_.find(key);
  if (it == tree_.end() || it->second.sent_up) {
    // Stray aggregate: this node already reported (or never joined).
    // Re-forward it toward the home node by geo-routing; if the home has
    // already finalized, the data is lost there — the "partially
    // collected data ... forwarded again and again" failure of Section 2.
    // Geo-delivered strays (from == invalid) are not re-forwarded, so a
    // wandering aggregate cannot loop.
    if (from != kInvalidNodeId && msg.home != kInvalidNodeId &&
        node->id() != msg.home) {
      auto copy = std::make_shared<AggregateMessage>(msg);
      const size_t bytes = 6 + copy->candidates.size() * kCandidateBytes;
      gpsr_->Send(node, msg.home_position, MessageType::kKptAggregate,
                  std::move(copy), bytes, EnergyCategory::kQuery, false,
                  msg.home);
    } else {
      ++stats_.data_lost;
    }
    return;
  }
  TreeNode& state = it->second;
  for (const KnnCandidate& c : msg.candidates) state.buffer.push_back(c);
  state.reported_children.insert(from);

  // Early completion: every known child has reported.
  bool all_reported = !state.expected_children.empty();
  for (NodeId child : state.expected_children) {
    if (!state.reported_children.contains(child)) {
      all_reported = false;
      break;
    }
  }
  if (all_reported) MaybeSendUp(key);
}

void KptKnnb::FinishAtHome(Node* node, TreeNode* state) {
  PruneCandidates(&state->buffer, state->query.q, state->query.k);
  auto result = std::make_shared<ResultMessage>();
  result->query_id = state->query.id;
  result->candidates = state->buffer;
  const size_t bytes = 6 + result->candidates.size() * kCandidateBytes;
  gpsr_->Send(node, state->query.sink_position, MessageType::kKptResult,
              std::move(result), bytes, EnergyCategory::kQuery, false,
              state->query.sink);
}

void KptKnnb::OnResult(Node* node, const GeoRoutedMessage& msg) {
  const auto* result = static_cast<const ResultMessage*>(msg.inner.get());
  if (ledger_.AtSink(result->query_id, node->id()) == nullptr) return;
  ledger_.Complete(result->query_id, false,
                   [&](Ledger::Entry& pending, KnnResult& out) {
                     ++stats_.queries_completed;
                     out.candidates = result->candidates;
                     PruneCandidates(&out.candidates, pending.q, pending.k);
                   });
}

}  // namespace diknn
