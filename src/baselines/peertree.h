// Peer-tree baseline (Demirbas & Ferhatosmanoglu, ICP2PC 2003), simulated
// exactly as the paper's Section 5.1 prescribes:
//
//   "a global index structure, R-tree, is built to preserve the MBR
//    hierarchy ... we partition the network into a 5x5 grid. Every cell
//    represents an MBR within which a stationary clusterhead is
//    pre-located and its address is known by every sensor node. Each
//    sensor node periodically sends a notification of existence to its
//    closest clusterhead. If a clusterhead does not hear from a child
//    after a period of time, it deletes the node and updates the MBR
//    record."
//
// Query flow: the sink routes the query to its local clusterhead; the
// local head forwards it up to the root head (center cell), which routes
// it down to the head whose cell contains q. The R-tree's MBR hierarchy
// is that grid of cells under the root head; inside a head, an MBR record
// is a table of its members' registrations keyed by node id, and a KNN
// lookup ranks it (NearestRecords). The coordinator seeds its candidates
// from its own table and — when k exceeds its cell's population or a
// neighboring cell could hold closer nodes — serially probes other heads
// in MinDist order. It then unicasts the query to each chosen candidate
// at its *recorded* position; candidates route their responses back to
// the sink. Stale records under mobility make these notifications miss
// ("a clusterhead simply drops packets if they can not be routed to the
// destinations in the MBR record"), which is the paper's explanation for
// Peer-tree's accuracy collapse in Fig. 9.

#ifndef DIKNN_BASELINES_PEERTREE_H_
#define DIKNN_BASELINES_PEERTREE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "knn/query.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// Peer-tree tunables.
struct PeerTreeParams {
  int grid_dim = 5;                   ///< 5x5 MBR grid (paper).
  /// Periodic existence notification. Chosen so that under mobility the
  /// *cell-crossing* registrations dominate the refresh ones — crossing a
  /// 23 m cell at 10-30 m/s happens every 1-3 s — reproducing the paper's
  /// "more sensor nodes move across MBRs -> excessive information
  /// updates" energy growth (Fig. 9(b)).
  SimTime registration_interval = 2.5;
  SimTime cell_check_interval = 0.25; ///< Cell-crossing detection period.
  SimTime member_timeout = 6.0;       ///< Clusterhead eviction timeout.
  SimTime probe_timeout = 1.0;        ///< Wait for a probed head's reply.
  SimTime query_timeout = 8.0;        ///< Sink-side completion timeout.
  /// The sink completes this long after the latest candidate response if
  /// the full k never arrive (stale records make some notifications miss).
  SimTime response_grace = 1.5;
};

/// Peer-tree behaviour counters.
struct PeerTreeStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t timeouts = 0;
  uint64_t registrations_sent = 0;
  uint64_t evictions = 0;
  uint64_t hierarchy_forwards = 0;   ///< Head-to-head query hops.
  uint64_t cells_probed = 0;
  uint64_t notifications_sent = 0;   ///< Coordinator -> candidate.
  uint64_t notifications_missed = 0; ///< Candidate not found (moved).
  uint64_t responses_received = 0;
};

/// The Peer-tree protocol. Requires a network built with grid_dim^2
/// stationary infrastructure nodes (see ClusterheadPositions); their ids
/// must be node_count .. node_count + grid_dim^2 - 1 in row-major order.
class PeerTree : public KnnProtocol {
 public:
  /// Clusterhead positions (cell centers) for a field and grid dimension,
  /// row-major; feed into NetworkConfig::infrastructure_positions.
  static std::vector<Point> ClusterheadPositions(const Rect& field,
                                                 int grid_dim = 5);

  PeerTree(Network* network, GpsrRouting* gpsr, PeerTreeParams params = {});

  void Install() override;
  void IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) override;
  std::string name() const override { return "PeerTree"; }
  size_t pending_queries() const override { return ledger_.size(); }

  const PeerTreeStats& stats() const { return stats_; }

 private:
  // -------- wire messages --------

  struct RegisterMessage : Message {
    NodeId node = kInvalidNodeId;
    Point position;
  };

  /// Query envelope routed sink -> local head -> root -> coordinator.
  struct QueryMessage : Message {
    KnnQuery query;
  };

  /// Coordinator -> other head: send me your records near q.
  struct ProbeMessage : Message {
    uint64_t query_id = 0;
    Point q;
    int k = 0;
    NodeId coordinator = kInvalidNodeId;
    Point coordinator_position;
  };

  /// Probed head -> coordinator: my best records.
  struct ProbeReply : Message {
    uint64_t query_id = 0;
    int cell = -1;
    std::vector<KnnCandidate> records;
  };

  /// Coordinator -> candidate node: answer this query at the sink.
  struct NotifyMessage : Message {
    KnnQuery query;
    NodeId candidate = kInvalidNodeId;
  };

  /// Candidate -> sink: the query response.
  struct ResponseMessage : Message {
    uint64_t query_id = 0;
    KnnCandidate candidate;
  };

  // -------- clusterhead state --------

  struct Cell {
    NodeId head = kInvalidNodeId;
    Rect rect;
    /// Each member's latest registration; sampled_at is when the head
    /// heard it.
    std::unordered_map<NodeId, KnnCandidate> records;
  };

  // -------- coordinator (per active query) state --------

  struct Coordination {
    KnnQuery query;
    int home_cell = -1;
    std::vector<KnnCandidate> candidates;
    std::vector<int> probe_order;    ///< Cells by MinDist, not yet probed.
    size_t next_probe = 0;
    /// Cells probed and awaiting replies ("multiple clusterheads ...
    /// propagate the query message in different MBRs" — probing runs in
    /// parallel waves, not serially).
    std::unordered_set<int> outstanding;
    EventId probe_timeout_event = 0;
  };

  /// Concurrent probe fan-out per coordination wave.
  static constexpr int kProbeWave = 1;

  // -------- sink state --------

  /// Peer-tree's fields of a query's ledger entry.
  struct SinkFields {
    Point q;
    int k = 1;
    std::vector<KnnCandidate> candidates;  ///< Responses so far.
  };
  using Ledger = QueryLedger<KnnResult, SinkFields>;

  int CellOf(const Point& p) const;
  Node* HeadNode(int cell) { return network_->node(cells_[cell].head); }

  void StartRegistrationLoops();
  void OnRegister(int cell, const RegisterMessage& msg);
  void EvictStale(int cell);

  void OnQueryAtHead(Node* node, const QueryMessage& msg);
  void Coordinate(int cell, const KnnQuery& query);
  void ContinueCoordination(uint64_t query_id);
  void OnProbe(Node* node, const ProbeMessage& msg);
  void OnProbeReply(Node* node, const ProbeReply& msg);
  void NotifyCandidates(uint64_t query_id);
  void OnNotify(Node* node, const NotifyMessage& msg);
  void OnResponse(Node* node, const ResponseMessage& msg);
  void CompleteQuery(uint64_t query_id, bool timed_out);

  Network* network_;
  GpsrRouting* gpsr_;
  PeerTreeParams params_;
  PeerTreeStats stats_;

  std::vector<Cell> cells_;
  int root_cell_ = 0;
  Ledger ledger_;
  std::unordered_map<uint64_t, Coordination> coordinations_;
  // Last cell each mobile node registered with (node-local state mirror).
  std::unordered_map<NodeId, int> registered_cell_;
};

}  // namespace diknn

#endif  // DIKNN_BASELINES_PEERTREE_H_
