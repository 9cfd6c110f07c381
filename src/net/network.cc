#include "net/network.h"

#include <algorithm>
#include <cassert>

namespace diknn {

namespace {

std::unique_ptr<MobilityModel> MakeMobility(const NetworkConfig& config,
                                            Point start, Rng rng) {
  switch (config.mobility) {
    case MobilityKind::kStatic:
      return std::make_unique<StaticMobility>(start);
    case MobilityKind::kRandomWaypoint:
    case MobilityKind::kGroup:  // Group references built in the ctor.
      return std::make_unique<RandomWaypointMobility>(
          start, config.field, config.max_speed, rng);
  }
  return std::make_unique<StaticMobility>(start);
}

}  // namespace

Network::Network(const NetworkConfig& config)
    : config_(config), rng_(config.seed) {
  if (!config_.explicit_positions.empty()) {
    config_.node_count =
        static_cast<int>(config_.explicit_positions.size());
  }
  ChannelParams chan;
  chan.radio_range_m = config.radio_range_m;
  chan.bit_rate_bps = config.bit_rate_bps;
  chan.loss_rate = config.loss_rate;
  chan.use_spatial_grid = config.use_spatial_grid;
  channel_ = std::make_unique<Channel>(&sim_, chan, rng_.Fork());

  const std::vector<Point> positions =
      config_.explicit_positions.empty()
          ? GeneratePositions(config_.placement, config_.node_count,
                              config_.field, rng_, config_.clusters)
          : config_.explicit_positions;

  NodeParams node_params;
  node_params.energy = config.energy;
  node_params.mac = config.mac;
  node_params.neighbor_timeout = config.neighbor_timeout;

  // Group (RPGM) mobility: one shared reference trajectory per herd,
  // seeded at the first member's generated position.
  std::vector<GroupMobility::Reference> group_refs;
  if (config_.mobility == MobilityKind::kGroup) {
    const int groups =
        (config_.node_count + config_.group_size - 1) /
        std::max(1, config_.group_size);
    for (int g = 0; g < groups; ++g) {
      const Point start = positions[std::min<size_t>(
          static_cast<size_t>(g) * config_.group_size,
          positions.size() - 1)];
      group_refs.push_back(std::make_shared<RandomWaypointMobility>(
          start, config_.field, config_.max_speed, rng_.Fork()));
    }
  }

  nodes_.reserve(config_.node_count +
                 config_.infrastructure_positions.size());
  for (int i = 0; i < config_.node_count; ++i) {
    std::unique_ptr<MobilityModel> mobility;
    if (i < config_.static_node_count) {
      mobility = std::make_unique<StaticMobility>(positions[i]);
    } else if (config_.mobility == MobilityKind::kGroup) {
      const auto& ref =
          group_refs[i / std::max(1, config_.group_size)];
      mobility = std::make_unique<GroupMobility>(
          ref, rng_.PointInDisk({0, 0}, config_.group_radius * 0.7),
          config_.group_radius, config_.group_member_speed, config_.field,
          rng_.Fork());
    } else {
      mobility = MakeMobility(config_, positions[i], rng_.Fork());
    }
    auto node = std::make_unique<Node>(i, &sim_, channel_.get(),
                                       std::move(mobility), node_params,
                                       rng_.Fork());
    channel_->Attach(node.get());
    nodes_.push_back(std::move(node));
  }
  for (const Point& p : config_.infrastructure_positions) {
    auto node = std::make_unique<Node>(
        static_cast<NodeId>(nodes_.size()), &sim_, channel_.get(),
        std::make_unique<StaticMobility>(p), node_params, rng_.Fork());
    node->set_infrastructure(true);
    channel_->Attach(node.get());
    nodes_.push_back(std::move(node));
  }

  beacons_ = std::make_unique<BeaconService>(&sim_, AllNodes(),
                                             config_.beacon_interval,
                                             rng_.Fork());
}

std::vector<Node*> Network::AllNodes() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

void Network::Warmup(SimTime duration) {
  beacons_->Start();
  sim_.RunUntil(sim_.Now() + duration);
}

std::vector<NodeId> Network::TrueKnn(const Point& q, int k) {
  struct Entry {
    double d2;
    NodeId id;
  };
  std::vector<Entry> entries;
  entries.reserve(nodes_.size());
  for (auto& n : nodes_) {
    if (!n->alive() || n->is_infrastructure()) continue;
    entries.push_back({SquaredDistance(n->Position(), q), n->id()});
  }
  const size_t take = std::min<size_t>(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + take, entries.end(),
                    [](const Entry& a, const Entry& b) {
                      if (a.d2 != b.d2) return a.d2 < b.d2;
                      return a.id < b.id;
                    });
  std::vector<NodeId> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(entries[i].id);
  return out;
}

NodeId Network::TrueNearestNode(const Point& q) {
  const auto knn = TrueKnn(q, 1);
  return knn.empty() ? kInvalidNodeId : knn[0];
}

double Network::TotalEnergy(EnergyCategory category) const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->energy().Joules(category);
  return total;
}

double Network::TotalEnergy() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->energy().TotalJoules();
  return total;
}

double Network::AverageDegree() {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  int live = 0;
  for (auto& n : nodes_) {
    if (!n->alive()) continue;
    sum += n->neighbors().CountFresh(sim_.Now());
    ++live;
  }
  return live == 0 ? 0.0 : sum / live;
}

}  // namespace diknn
