#include "baselines/centralized.h"

#include <algorithm>

namespace diknn {

namespace {
constexpr size_t kUpdateBytes = 12;
constexpr size_t kQueryBytes = 26;
constexpr size_t kCandidateBytes = 12;

struct QueryEnvelope : Message {
  KnnQuery query;
};

struct ResultEnvelope : Message {
  KnnResult result;
  NodeId sink = kInvalidNodeId;
};

}  // namespace

CentralizedIndex::CentralizedIndex(Network* network, GpsrRouting* gpsr,
                                   CentralizedParams params)
    : network_(network),
      gpsr_(gpsr),
      params_(params),
      ledger_(&network->sim()) {}

void CentralizedIndex::Install() {
  gpsr_->RegisterDelivery(
      MessageType::kCentralUpdate,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnUpdate(node, *static_cast<const UpdateMessage*>(msg.inner.get()));
      });
  gpsr_->RegisterDelivery(
      MessageType::kCentralQuery,
      [this](Node* node, const GeoRoutedMessage& msg) {
        // A remote sink's query reached the station: answer and ship the
        // result back.
        if (node->id() != params_.center) return;
        const auto& query =
            static_cast<const QueryEnvelope*>(msg.inner.get())->query;
        auto envelope = std::make_shared<ResultEnvelope>();
        envelope->result = AnswerLocally(query);
        envelope->sink = query.sink;
        const size_t bytes =
            10 + envelope->result.candidates.size() * kCandidateBytes;
        // Address the reply to the sink's freshest *recorded* position —
        // the station's one advantage is that it tracks everyone.
        const auto sink_record = records_.find(query.sink);
        const Point reply_to = sink_record != records_.end()
                                   ? sink_record->second.position
                                   : query.sink_position;
        network_->sim().ScheduleAfter(
            params_.processing_delay,
            [this, node, envelope, bytes, reply_to, query]() {
              gpsr_->Send(node, reply_to, MessageType::kCentralResult,
                          envelope, bytes, EnergyCategory::kQuery, false,
                          query.sink);
            });
      });
  gpsr_->RegisterDelivery(
      MessageType::kCentralResult,
      [this](Node* node, const GeoRoutedMessage& msg) {
        const auto* envelope =
            static_cast<const ResultEnvelope*>(msg.inner.get());
        const uint64_t id = envelope->result.query_id;
        if (ledger_.AtSink(id, node->id()) == nullptr) return;
        CompleteQuery(id, envelope->result.candidates);
      });

  // Location update loops on every sensor except the station itself.
  Node* center = network_->node(params_.center);
  for (Node* node : network_->AllNodes()) {
    if (node->is_infrastructure() || node->id() == params_.center) continue;
    const double phase =
        node->rng().Uniform(0.0, params_.update_interval);
    network_->sim().SchedulePeriodic(
        phase, params_.update_interval, [this, node, center]() {
          if (!node->alive()) return true;
          auto update = std::make_shared<UpdateMessage>();
          update->node = node->id();
          update->position = node->Position();
          update->speed = node->Speed();
          gpsr_->Send(node, center->Position(), MessageType::kCentralUpdate,
                      std::move(update), kUpdateBytes,
                      EnergyCategory::kMaintenance, false, center->id(),
                      /*cheap_delivery=*/true);
          ++stats_.updates_sent;
          return true;
        });
  }
}

void CentralizedIndex::OnUpdate(Node* node, const UpdateMessage& msg) {
  if (node->id() != params_.center) return;  // Stranded update.
  ++stats_.updates_received;
  KnnCandidate& record = records_[msg.node];
  record.id = msg.node;
  record.position = msg.position;
  record.speed = msg.speed;
  record.sampled_at = network_->sim().Now();
}

KnnResult CentralizedIndex::AnswerLocally(const KnnQuery& query) {
  KnnResult result;
  result.query_id = query.id;
  result.candidates = NearestRecords(records_, query.q, query.k);
  return result;
}

void CentralizedIndex::IssueQuery(NodeId sink, Point q, int k,
                                  ResultHandler handler) {
  KnnQuery query;
  query.id = ledger_.NextId();
  query.q = q;
  query.k = std::max(1, k);
  query.sink = sink;
  query.sink_position = network_->node(sink)->Position();
  ++stats_.queries_issued;

  const uint64_t id = query.id;
  if (sink == params_.center) {
    // The station queries its own index: only the processing delay, whose
    // timer completes the query as not timed out.
    ledger_.Open(id, sink, std::move(handler), params_.processing_delay,
                 [this, id, answer = AnswerLocally(query).candidates]() {
                   CompleteQuery(id, answer);
                 });
    return;
  }

  // Remote sink: ship the query to the station, the result back.
  ledger_.Open(id, sink, std::move(handler), params_.query_timeout,
               [this, id]() {
                 ledger_.Complete(id, true, [this](Ledger::Entry&, KnnResult&) {
                   ++stats_.timeouts;
                 });
               });

  auto envelope = std::make_shared<QueryEnvelope>();
  envelope->query = query;
  Node* center = network_->node(params_.center);
  gpsr_->Send(network_->node(sink), center->Position(),
              MessageType::kCentralQuery, std::move(envelope), kQueryBytes,
              EnergyCategory::kQuery, false, center->id());
}

void CentralizedIndex::CompleteQuery(
    uint64_t id, const std::vector<KnnCandidate>& candidates) {
  ledger_.Complete(id, false, [&](Ledger::Entry&, KnnResult& result) {
    ++stats_.queries_completed;
    result.candidates = candidates;
  });
}

}  // namespace diknn
