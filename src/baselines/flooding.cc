#include "baselines/flooding.h"

#include <algorithm>

#include "core/alloc_probe.h"
#include "knn/knnb.h"

namespace diknn {

namespace {
constexpr size_t kQueryBytes = 26;
constexpr size_t kFloodBytes = 30;
constexpr size_t kReplyBytes = 14;
}  // namespace

Flooding::Flooding(Network* network, GpsrRouting* gpsr,
                   FloodingParams params)
    : network_(network),
      gpsr_(gpsr),
      params_(params),
      ledger_(&network->sim()) {}

void Flooding::Install() {
  gpsr_->RegisterDelivery(
      MessageType::kFloodQuery,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnHomeNodeArrival(node, msg);
      });
  gpsr_->RegisterDelivery(
      MessageType::kFloodReply,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnReply(node, *static_cast<const ReplyMessage*>(msg.inner.get()));
      });
  // A frame handler runs inside the channel's net scope, but flooding's
  // work is not the packet plane's (GpsrRouting::Deliver pauses the
  // deliveries above the same way).
  for (Node* node : network_->AllNodes()) {
    node->RegisterHandler(
        MessageType::kFloodQuery, [this, node](const Packet& p) {
          AllocScopePause protocol_work;
          OnFlood(node, *static_cast<const FloodMessage*>(p.payload.get()));
        });
  }
}

void Flooding::IssueQuery(NodeId sink, Point q, int k,
                          ResultHandler handler) {
  Node* sink_node = network_->node(sink);
  KnnQuery query;
  query.id = ledger_.NextId();
  query.q = q;
  query.k = std::max(1, k);
  query.sink = sink;
  query.sink_position = sink_node->Position();

  // The fixed collection window is the query's only timer; its expiry
  // is the normal completion, not a timeout.
  const uint64_t id = query.id;
  Ledger::Entry& pending = ledger_.Open(
      id, sink, std::move(handler),
      std::min(params_.collect_window + 1.0, params_.query_timeout),
      [this, id]() { CompleteQuery(id); });
  pending.q = query.q;
  pending.k = query.k;
  ++stats_.queries_issued;

  auto bootstrap = std::make_shared<QueryBootstrap>();
  bootstrap->query = query;
  gpsr_->Send(sink_node, q, MessageType::kFloodQuery, std::move(bootstrap),
              kQueryBytes, EnergyCategory::kQuery, /*collect_info=*/true);
}

void Flooding::OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg) {
  const auto* bootstrap =
      static_cast<const QueryBootstrap*>(msg.inner.get());
  const KnnQuery& query = bootstrap->query;

  const KnnbResult knnb =
      Knnb(msg.info_list, query.q, network_->config().radio_range_m,
           query.k, KnnbMaxRadius(network_->config().field));

  auto flood = std::make_shared<FloodMessage>();
  flood->query = query;
  flood->radius = knnb.radius;
  OnFlood(node, *flood);  // The home node handles the flood locally too.
  node->SendBroadcast(MessageType::kFloodQuery, std::move(flood),
                      kFloodBytes, EnergyCategory::kQuery);
  ++stats_.rebroadcasts;
}

void Flooding::OnFlood(Node* node, const FloodMessage& msg) {
  if (node->is_infrastructure()) return;
  if (Distance(node->Position(), msg.query.q) > msg.radius) return;
  auto& seen = seen_[msg.query.id];
  if (!seen.insert(node->id()).second) return;

  // Route the individual response straight to the sink...
  auto reply = std::make_shared<ReplyMessage>();
  reply->query_id = msg.query.id;
  reply->candidate.id = node->id();
  reply->candidate.position = node->Position();
  reply->candidate.speed = node->Speed();
  reply->candidate.sampled_at = network_->sim().Now();
  gpsr_->Send(node, msg.query.sink_position, MessageType::kFloodReply,
              std::move(reply), kReplyBytes, EnergyCategory::kQuery, false,
              msg.query.sink);
  ++stats_.replies_sent;

  // ...and rebroadcast the query after a small jitter.
  auto copy = std::make_shared<FloodMessage>(msg);
  const double jitter = node->rng().Uniform(0.0, params_.rebroadcast_jitter);
  network_->sim().ScheduleAfter(jitter, [this, node, copy]() {
    if (!node->alive()) return;
    node->SendBroadcast(MessageType::kFloodQuery, copy, kFloodBytes,
                        EnergyCategory::kQuery);
    ++stats_.rebroadcasts;
  });
}

void Flooding::OnReply(Node* node, const ReplyMessage& msg) {
  Ledger::Entry* pending = ledger_.AtSink(msg.query_id, node->id());
  if (pending == nullptr) return;
  ++stats_.replies_received;
  pending->candidates.push_back(msg.candidate);
}

void Flooding::CompleteQuery(uint64_t query_id) {
  ledger_.Complete(query_id, false,
                   [&](Ledger::Entry& pending, KnnResult& result) {
                     ++stats_.queries_completed;
                     result.candidates = pending.candidates;
                     PruneCandidates(&result.candidates, pending.q,
                                     pending.k);
                     seen_.erase(query_id);
                   });
}

}  // namespace diknn
