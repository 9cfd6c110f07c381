// Naive infrastructure-free baseline (Section 3.3): flood the query within
// the KNNB boundary; every node inside routes its response back to the
// sink end-to-end and rebroadcasts the query. The paper rejects this
// design as "extremely resource-consuming ... because of the excessive
// number of independent routing paths"; it is implemented here for the
// ablation benches that quantify exactly that.

#ifndef DIKNN_BASELINES_FLOODING_H_
#define DIKNN_BASELINES_FLOODING_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "knn/query.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// Flooding tunables.
struct FloodingParams {
  double rebroadcast_jitter = 0.02;  ///< Max forwarding jitter (s).
  SimTime collect_window = 3.0;      ///< Sink waits this long for replies.
  SimTime query_timeout = 8.0;
};

/// Flooding behaviour counters.
struct FloodingStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t rebroadcasts = 0;
  uint64_t replies_sent = 0;
  uint64_t replies_received = 0;
};

/// Boundary-bounded flooding with per-node response routing.
class Flooding : public KnnProtocol {
 public:
  Flooding(Network* network, GpsrRouting* gpsr, FloodingParams params = {});

  void Install() override;
  void IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) override;
  std::string name() const override { return "Flooding"; }
  size_t pending_queries() const override { return ledger_.size(); }

  const FloodingStats& stats() const { return stats_; }

 private:
  struct QueryBootstrap : Message {
    KnnQuery query;
  };

  struct FloodMessage : Message {
    KnnQuery query;
    double radius = 0.0;
  };

  struct ReplyMessage : Message {
    uint64_t query_id = 0;
    KnnCandidate candidate;
  };

  /// Flooding's fields of a query's ledger entry.
  struct SinkFields {
    Point q;
    int k = 1;
    std::vector<KnnCandidate> candidates;  ///< Replies so far.
  };
  using Ledger = QueryLedger<KnnResult, SinkFields>;

  void OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg);
  void OnFlood(Node* node, const FloodMessage& msg);
  void OnReply(Node* node, const ReplyMessage& msg);
  // The collection window closed: answer with the replies so far.
  void CompleteQuery(uint64_t query_id);

  Network* network_;
  GpsrRouting* gpsr_;
  FloodingParams params_;
  FloodingStats stats_;

  Ledger ledger_;
  std::unordered_map<uint64_t, std::unordered_set<NodeId>> seen_;
};

}  // namespace diknn

#endif  // DIKNN_BASELINES_FLOODING_H_
