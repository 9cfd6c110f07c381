// The Network assembles the whole substrate: simulator, channel, nodes
// with mobility, and periodic beaconing. It also provides the ground-truth
// KNN oracle used to score query accuracy.

#ifndef DIKNN_NET_NETWORK_H_
#define DIKNN_NET_NETWORK_H_

#include <memory>
#include <vector>

#include "core/geometry.h"
#include "core/rng.h"
#include "net/beacon.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/placement.h"
#include "sim/simulator.h"

namespace diknn {

/// Mobility selector for network construction.
enum class MobilityKind {
  kStatic,          ///< All nodes stationary.
  kRandomWaypoint,  ///< Paper default (Section 5.1).
  kGroup,           ///< RPGM herds: see GroupMobility.
};

/// Full network configuration; defaults reproduce the paper's Section 5.1
/// parameter table.
struct NetworkConfig {
  int node_count = 200;
  Rect field = Rect::Field(115.0, 115.0);  ///< 115 x 115 m^2 -> degree ~20.
  double radio_range_m = 20.0;
  double bit_rate_bps = 250e3;
  double loss_rate = 0.0;
  /// Serve channel delivery / carrier sensing from the spatial hash grid
  /// (bit-identical to the brute-force scan; see ChannelParams).
  bool use_spatial_grid = true;
  SimTime beacon_interval = 0.5;
  SimTime neighbor_timeout = 1.5;
  MobilityKind mobility = MobilityKind::kRandomWaypoint;
  double max_speed = 10.0;  ///< mu_max (m/s).
  // Group (RPGM) mobility parameters, used when mobility == kGroup.
  int group_size = 20;            ///< Members per herd.
  double group_radius = 18.0;     ///< Herd spread (m).
  double group_member_speed = 2.0;///< Local wandering speed (m/s).
  /// The first `static_node_count` nodes stay stationary regardless of
  /// the mobility model. Used to pin the query sink: the sink of a WSN is
  /// the base station, which does not wander off while results are in
  /// flight (sensor mobility is what the paper varies).
  int static_node_count = 0;
  PlacementKind placement = PlacementKind::kUniform;
  ClusterParams clusters;
  /// When non-empty, overrides `placement` (and `node_count`) with these
  /// exact initial positions. Used by tests and the Fig. 7 demo to build
  /// hand-crafted topologies.
  std::vector<Point> explicit_positions;
  EnergyParams energy;
  MacParams mac;
  uint64_t seed = 1;
  /// Static infrastructure nodes appended after the mobile ones (ids
  /// node_count, node_count+1, ...). Used for Peer-tree clusterheads.
  std::vector<Point> infrastructure_positions;
};

/// An assembled simulated sensor network.
class Network {
 public:
  explicit Network(const NetworkConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  Channel& channel() { return *channel_; }
  const NetworkConfig& config() const { return config_; }

  int size() const { return static_cast<int>(nodes_.size()); }
  Node* node(NodeId id) { return nodes_[id].get(); }
  const Node* node(NodeId id) const { return nodes_[id].get(); }

  /// Pointers to all nodes (stable for the network's lifetime).
  std::vector<Node*> AllNodes();

  /// Starts beaconing and runs the simulator for `duration` so neighbor
  /// tables are populated before any query is issued.
  void Warmup(SimTime duration = 1.5);

  /// Ground-truth oracle: ids of the k live nodes nearest to `q` right
  /// now, by true (not beacon-stale) position. Ties broken by id.
  /// Non-const: evaluating a mobility model lazily advances its leg state.
  std::vector<NodeId> TrueKnn(const Point& q, int k);

  /// The live node whose true position is nearest to `q`.
  NodeId TrueNearestNode(const Point& q);

  /// Sum of a category's energy across all nodes (Joules).
  double TotalEnergy(EnergyCategory category) const;

  /// Sum of all energy across all nodes (Joules).
  double TotalEnergy() const;

  /// Average fresh-neighbor count over all live nodes (the "node degree"
  /// knob of Section 5.1).
  double AverageDegree();

 private:
  NetworkConfig config_;
  Simulator sim_;
  Rng rng_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<BeaconService> beacons_;
};

}  // namespace diknn

#endif  // DIKNN_NET_NETWORK_H_
