#include "baselines/peertree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/logging.h"

namespace diknn {

namespace {

constexpr size_t kRegisterBytes = 10;
constexpr size_t kQueryBytes = 26;
constexpr size_t kProbeBytes = 26;
constexpr size_t kNotifyBytes = 28;
constexpr size_t kResponseBytes = 14;
constexpr size_t kCandidateBytes = 12;

}  // namespace

std::vector<Point> PeerTree::ClusterheadPositions(const Rect& field,
                                                  int grid_dim) {
  std::vector<Point> out;
  out.reserve(grid_dim * grid_dim);
  const double cw = field.Width() / grid_dim;
  const double ch = field.Height() / grid_dim;
  for (int row = 0; row < grid_dim; ++row) {
    for (int col = 0; col < grid_dim; ++col) {
      out.push_back({field.min.x + (col + 0.5) * cw,
                     field.min.y + (row + 0.5) * ch});
    }
  }
  return out;
}

PeerTree::PeerTree(Network* network, GpsrRouting* gpsr,
                   PeerTreeParams params)
    : network_(network),
      gpsr_(gpsr),
      params_(params),
      ledger_(&network->sim()) {
  const Rect& field = network_->config().field;
  const int dim = params_.grid_dim;
  const int mobile = network_->config().node_count;
  assert(network_->size() >= mobile + dim * dim &&
         "network lacks the grid_dim^2 clusterhead infrastructure nodes");

  cells_.resize(dim * dim);
  const double cw = field.Width() / dim;
  const double ch = field.Height() / dim;
  for (int row = 0; row < dim; ++row) {
    for (int col = 0; col < dim; ++col) {
      Cell& cell = cells_[row * dim + col];
      cell.head = mobile + row * dim + col;
      cell.rect = Rect{{field.min.x + col * cw, field.min.y + row * ch},
                       {field.min.x + (col + 1) * cw,
                        field.min.y + (row + 1) * ch}};
    }
  }
  root_cell_ = (dim / 2) * dim + dim / 2;  // Center cell acts as root.
}

int PeerTree::CellOf(const Point& p) const {
  const Rect& field = network_->config().field;
  const int dim = params_.grid_dim;
  int col = static_cast<int>((p.x - field.min.x) / field.Width() * dim);
  int row = static_cast<int>((p.y - field.min.y) / field.Height() * dim);
  col = std::clamp(col, 0, dim - 1);
  row = std::clamp(row, 0, dim - 1);
  return row * dim + col;
}

void PeerTree::Install() {
  gpsr_->RegisterDelivery(
      MessageType::kPeerRegister,
      [this](Node* node, const GeoRoutedMessage& msg) {
        // Registrations are only meaningful at the addressed clusterhead.
        if (!node->is_infrastructure()) return;
        const int cell = CellOf(node->Position());
        if (cells_[cell].head != node->id()) return;
        OnRegister(cell,
                   *static_cast<const RegisterMessage*>(msg.inner.get()));
      });
  gpsr_->RegisterDelivery(
      MessageType::kPeerQuery,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnQueryAtHead(node,
                      *static_cast<const QueryMessage*>(msg.inner.get()));
      });
  gpsr_->RegisterDelivery(
      MessageType::kPeerProbe,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnProbe(node, *static_cast<const ProbeMessage*>(msg.inner.get()));
      });
  gpsr_->RegisterDelivery(
      MessageType::kPeerReply,
      [this](Node* node, const GeoRoutedMessage& msg) {
        OnProbeReply(node,
                     *static_cast<const ProbeReply*>(msg.inner.get()));
      });
  gpsr_->RegisterDelivery(
      MessageType::kPeerResult,
      [this](Node* node, const GeoRoutedMessage& msg) {
        // kPeerResult doubles for coordinator->candidate notification and
        // candidate->sink response; distinguish by payload.
        if (const auto* notify =
                dynamic_cast<const NotifyMessage*>(msg.inner.get())) {
          OnNotify(node, *notify);
        } else {
          OnResponse(node,
                     *static_cast<const ResponseMessage*>(msg.inner.get()));
        }
      });

  StartRegistrationLoops();
}

void PeerTree::StartRegistrationLoops() {
  Simulator& sim = network_->sim();
  for (Node* node : network_->AllNodes()) {
    if (node->is_infrastructure()) continue;
    const NodeId id = node->id();
    // Jitter the phases so registrations do not synchronize.
    const double phase =
        node->rng().Uniform(0.0, params_.cell_check_interval);
    // Track the last refresh locally per node via the shared map.
    auto last_sent = std::make_shared<SimTime>(-params_.registration_interval);
    sim.SchedulePeriodic(
        phase, params_.cell_check_interval, [this, node, id, last_sent]() {
          if (!node->alive()) return true;
          const SimTime now = network_->sim().Now();
          const int cell = CellOf(node->Position());
          auto it = registered_cell_.find(id);
          const bool crossed =
              it == registered_cell_.end() || it->second != cell;
          const bool refresh_due =
              now - *last_sent >= params_.registration_interval;
          if (!crossed && !refresh_due) return true;
          registered_cell_[id] = cell;
          *last_sent = now;
          auto msg = std::make_shared<RegisterMessage>();
          msg->node = id;
          msg->position = node->Position();
          Node* head = HeadNode(cell);
          gpsr_->Send(node, head->Position(), MessageType::kPeerRegister,
                      std::move(msg), kRegisterBytes,
                      EnergyCategory::kMaintenance, false, head->id(),
                      /*cheap_delivery=*/true);
          ++stats_.registrations_sent;
          return true;
        });
  }
  // Clusterhead eviction sweeps.
  for (size_t c = 0; c < cells_.size(); ++c) {
    sim.SchedulePeriodic(params_.member_timeout,
                         params_.member_timeout / 2.0, [this, c]() {
                           EvictStale(static_cast<int>(c));
                           return true;
                         });
  }
}

void PeerTree::OnRegister(int cell, const RegisterMessage& msg) {
  KnnCandidate& record = cells_[cell].records[msg.node];
  record.id = msg.node;
  record.position = msg.position;
  record.sampled_at = network_->sim().Now();
}

void PeerTree::EvictStale(int cell) {
  Cell& c = cells_[cell];
  const SimTime now = network_->sim().Now();
  for (auto it = c.records.begin(); it != c.records.end();) {
    if (now - it->second.sampled_at > params_.member_timeout) {
      it = c.records.erase(it);
      ++stats_.evictions;
    } else {
      ++it;
    }
  }
}

void PeerTree::IssueQuery(NodeId sink, Point q, int k,
                          ResultHandler handler) {
  Node* sink_node = network_->node(sink);
  KnnQuery query;
  query.id = ledger_.NextId();
  query.q = q;
  query.k = std::max(1, k);
  query.sink = sink;
  query.sink_position = sink_node->Position();

  const uint64_t id = query.id;
  Ledger::Entry& pending =
      ledger_.Open(id, sink, std::move(handler), params_.query_timeout,
                   [this, id]() { CompleteQuery(id, true); });
  pending.q = query.q;
  pending.k = query.k;
  ++stats_.queries_issued;

  // Route to the local clusterhead first (the paper's Fig. 2(a) flow).
  const int local_cell = CellOf(sink_node->Position());
  Node* head = HeadNode(local_cell);
  auto msg = std::make_shared<QueryMessage>();
  msg->query = query;
  gpsr_->Send(sink_node, head->Position(), MessageType::kPeerQuery,
              std::move(msg), kQueryBytes, EnergyCategory::kQuery, false,
              head->id(), /*cheap_delivery=*/true);
}

void PeerTree::OnQueryAtHead(Node* node, const QueryMessage& msg) {
  if (!node->is_infrastructure()) return;  // Stranded query; timeout closes.
  const int my_cell = CellOf(node->Position());
  const KnnQuery& query = msg.query;
  const int target_cell = CellOf(query.q);

  if (my_cell == target_cell) {
    Coordinate(my_cell, query);
    return;
  }
  // Forward along the hierarchy: non-root heads go up to the root, the
  // root goes down to the covering head.
  const int next_cell = (my_cell == root_cell_) ? target_cell : root_cell_;
  Node* next_head = HeadNode(next_cell);
  auto fwd = std::make_shared<QueryMessage>(msg);
  ++stats_.hierarchy_forwards;
  gpsr_->Send(node, next_head->Position(), MessageType::kPeerQuery,
              std::move(fwd), kQueryBytes, EnergyCategory::kQuery, false,
              next_head->id(), /*cheap_delivery=*/true);
}

void PeerTree::Coordinate(int cell, const KnnQuery& query) {
  Coordination coord;
  coord.query = query;
  coord.home_cell = cell;

  // Seed with the coordinator's own records.
  const Cell& c = cells_[cell];
  coord.candidates = NearestRecords(c.records, query.q, query.k);

  // Other cells ordered by how close they could possibly hold records,
  // bounded by a density estimate from the coordinator's own records:
  // cells beyond ~1.5x the radius that should contain k nodes cannot
  // contribute and are never probed (keeps the serial probe chain short
  // enough to finish within the query budget).
  const double density =
      std::max<size_t>(c.records.size(), 1) / c.rect.Area();
  const double reach =
      1.5 * std::sqrt(query.k / (kPi * density)) +
      network_->config().radio_range_m;
  std::vector<int> order;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (static_cast<int>(i) == cell) continue;
    if (cells_[i].rect.MinDistance(query.q) > reach) continue;
    order.push_back(static_cast<int>(i));
  }
  std::sort(order.begin(), order.end(), [this, &query](int a, int b) {
    return cells_[a].rect.MinDistance(query.q) <
           cells_[b].rect.MinDistance(query.q);
  });
  coord.probe_order = std::move(order);

  coordinations_[query.id] = std::move(coord);
  ContinueCoordination(query.id);
}

void PeerTree::ContinueCoordination(uint64_t query_id) {
  auto it = coordinations_.find(query_id);
  if (it == coordinations_.end()) return;
  Coordination& coord = it->second;

  // Current guarantee distance: the k-th best candidate (infinity if we
  // still have fewer than k).
  double kth = std::numeric_limits<double>::infinity();
  if (coord.candidates.size() >= static_cast<size_t>(coord.query.k)) {
    kth = Distance(coord.candidates.back().position, coord.query.q);
  }

  // Launch probes up to the wave width.
  while (static_cast<int>(coord.outstanding.size()) < kProbeWave &&
         coord.next_probe < coord.probe_order.size()) {
    const int cell = coord.probe_order[coord.next_probe];
    if (cells_[cell].rect.MinDistance(coord.query.q) > kth) {
      // No remaining cell can improve the result.
      coord.next_probe = coord.probe_order.size();
      break;
    }
    ++coord.next_probe;
    ++stats_.cells_probed;
    coord.outstanding.insert(cell);

    Node* coordinator = HeadNode(coord.home_cell);
    Node* target = HeadNode(cell);
    auto probe = std::make_shared<ProbeMessage>();
    probe->query_id = query_id;
    probe->q = coord.query.q;
    probe->k = coord.query.k;
    probe->coordinator = coordinator->id();
    probe->coordinator_position = coordinator->Position();
    gpsr_->Send(coordinator, target->Position(), MessageType::kPeerProbe,
                std::move(probe), kProbeBytes, EnergyCategory::kQuery,
                false, target->id(), /*cheap_delivery=*/true);
  }

  if (!coord.outstanding.empty()) {
    // (Re)arm one wave timeout: whatever is still outstanding when it
    // fires is written off and coordination proceeds.
    if (!network_->sim().IsPending(coord.probe_timeout_event)) {
      coord.probe_timeout_event = network_->sim().ScheduleAfter(
          params_.probe_timeout, [this, query_id]() {
            auto cit = coordinations_.find(query_id);
            if (cit == coordinations_.end()) return;
            cit->second.outstanding.clear();
            ContinueCoordination(query_id);
          });
    }
    return;  // Wait for replies (or the wave timeout).
  }

  NotifyCandidates(query_id);
}

void PeerTree::OnProbe(Node* node, const ProbeMessage& msg) {
  if (!node->is_infrastructure()) return;
  const int cell = CellOf(node->Position());

  auto reply = std::make_shared<ProbeReply>();
  reply->query_id = msg.query_id;
  reply->cell = cell;
  reply->records = NearestRecords(cells_[cell].records, msg.q, msg.k);
  const size_t bytes = 6 + reply->records.size() * kCandidateBytes;
  gpsr_->Send(node, msg.coordinator_position, MessageType::kPeerReply,
              std::move(reply), bytes, EnergyCategory::kQuery, false,
              msg.coordinator, /*cheap_delivery=*/true);
}

void PeerTree::OnProbeReply(Node* node, const ProbeReply& msg) {
  auto it = coordinations_.find(msg.query_id);
  if (it == coordinations_.end()) return;
  Coordination& coord = it->second;
  if (HeadNode(coord.home_cell)->id() != node->id()) return;
  if (coord.outstanding.erase(msg.cell) == 0) return;  // Late reply.

  for (const KnnCandidate& c : msg.records) coord.candidates.push_back(c);
  PruneCandidates(&coord.candidates, coord.query.q, coord.query.k);
  if (coord.outstanding.empty()) {
    network_->sim().Cancel(coord.probe_timeout_event);
  }
  ContinueCoordination(msg.query_id);
}

void PeerTree::NotifyCandidates(uint64_t query_id) {
  auto it = coordinations_.find(query_id);
  if (it == coordinations_.end()) return;
  Coordination coord = std::move(it->second);
  coordinations_.erase(it);

  Node* coordinator = HeadNode(coord.home_cell);
  for (const KnnCandidate& cand : coord.candidates) {
    auto notify = std::make_shared<NotifyMessage>();
    notify->query = coord.query;
    notify->candidate = cand.id;
    ++stats_.notifications_sent;
    // Unicast the query to the candidate at its *recorded* position. If
    // the node moved away, the message strands and the candidate never
    // answers — the paper's staleness failure mode.
    gpsr_->Send(coordinator, cand.position, MessageType::kPeerResult,
                std::move(notify), kNotifyBytes, EnergyCategory::kQuery,
                false, cand.id, /*cheap_delivery=*/true);
  }
}

void PeerTree::OnNotify(Node* node, const NotifyMessage& msg) {
  if (node->id() != msg.candidate) {
    ++stats_.notifications_missed;
    return;
  }
  auto response = std::make_shared<ResponseMessage>();
  response->query_id = msg.query.id;
  response->candidate.id = node->id();
  response->candidate.position = node->Position();
  response->candidate.speed = node->Speed();
  response->candidate.sampled_at = network_->sim().Now();
  gpsr_->Send(node, msg.query.sink_position, MessageType::kPeerResult,
              std::move(response), kResponseBytes, EnergyCategory::kQuery,
              false, msg.query.sink);
}

void PeerTree::OnResponse(Node* node, const ResponseMessage& msg) {
  Ledger::Entry* pending = ledger_.AtSink(msg.query_id, node->id());
  if (pending == nullptr) return;
  ++stats_.responses_received;
  pending->candidates.push_back(msg.candidate);
  if (pending->candidates.size() >= static_cast<size_t>(pending->k)) {
    CompleteQuery(msg.query_id, /*timed_out=*/false);
    return;
  }
  // Some notifications will have missed their moved targets; stop waiting
  // shortly after the responses dry up.
  const uint64_t query_id = msg.query_id;
  ledger_.ArmGrace(pending, params_.response_grace, [this, query_id]() {
    CompleteQuery(query_id, /*timed_out=*/false);
  });
}

void PeerTree::CompleteQuery(uint64_t query_id, bool timed_out) {
  ledger_.Complete(query_id, timed_out,
                   [&](Ledger::Entry& pending, KnnResult& result) {
                     if (timed_out) {
                       ++stats_.timeouts;
                     } else {
                       ++stats_.queries_completed;
                     }
                     result.candidates = pending.candidates;
                     PruneCandidates(&result.candidates, pending.q,
                                     pending.k);
                   });
}

}  // namespace diknn
