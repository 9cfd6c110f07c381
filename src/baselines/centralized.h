// Centralized baseline — the other branch of the paper's Fig. 1 taxonomy.
//
// "The centralized approach performs the queries in a centralized
// database containing locations of all the sensor nodes ... usually
// maintained in an R-tree variant index." Every node streams periodic
// location updates (multi-hop) to a central station, which keeps the
// latest report of each node in a table keyed by node id; KNN queries are
// answered at the station from that table alone, by ranking it
// (NearestRecords). The index structure is not simulated: a lookup costs
// the constant processing_delay whatever structure serves it.
//
// Its failure modes are exactly what motivates in-network processing:
// the update stream's energy cost scales with n and with the desired
// freshness, and answers are as stale as the update period — the trade
// the ICDE'06/'07 in-network line of work (and this paper) escapes.

#ifndef DIKNN_BASELINES_CENTRALIZED_H_
#define DIKNN_BASELINES_CENTRALIZED_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "knn/query.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// Centralized-index tunables.
struct CentralizedParams {
  NodeId center = 0;              ///< The station holding the index.
  /// Per-node location report period. All reports funnel into the one
  /// station's airspace: below ~4 s the update stream saturates the
  /// channel around it and deliveries collapse — the centralized
  /// bottleneck in its purest form. The default stays under saturation.
  SimTime update_interval = 5.0;
  SimTime query_timeout = 8.0;
  /// Local processing delay at the station per query (index lookup etc.).
  SimTime processing_delay = 0.005;
};

/// Behaviour counters.
struct CentralizedStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t timeouts = 0;
  uint64_t updates_sent = 0;
  uint64_t updates_received = 0;
};

/// The centralized-index baseline.
class CentralizedIndex : public KnnProtocol {
 public:
  CentralizedIndex(Network* network, GpsrRouting* gpsr,
                   CentralizedParams params = {});

  void Install() override;
  void IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) override;
  std::string name() const override { return "Centralized"; }
  size_t pending_queries() const override { return ledger_.size(); }

  const CentralizedStats& stats() const { return stats_; }

  /// Current index size (for tests).
  size_t IndexedNodes() const { return records_.size(); }

 private:
  struct UpdateMessage : Message {
    NodeId node = kInvalidNodeId;
    Point position;
    double speed = 0.0;
  };

  using Ledger = QueryLedger<KnnResult>;

  void OnUpdate(Node* node, const UpdateMessage& msg);
  // Answers a query locally at the center station.
  KnnResult AnswerLocally(const KnnQuery& query);
  // Completes query `id`, not timed out, with the station's answer.
  void CompleteQuery(uint64_t id,
                     const std::vector<KnnCandidate>& candidates);

  Network* network_;
  GpsrRouting* gpsr_;
  CentralizedParams params_;
  CentralizedStats stats_;

  /// Queries of remote sinks; the station answers its own locally.
  Ledger ledger_;
  /// Each node's latest update; sampled_at is when the station received
  /// it.
  std::unordered_map<NodeId, KnnCandidate> records_;
};

}  // namespace diknn

#endif  // DIKNN_BASELINES_CENTRALIZED_H_
