// KPT baseline (Winter & Lee, DMSN 2004; Winter, Xu & Lee, MobiQuitous
// 2005), simulated per the paper's Section 5.1 fair-comparison setup:
// "we simulate KPT in which the KNNB algorithm is adopted for boundary
// estimation and a spanning tree is constructed for data collection after
// the boundary is determined."
//
// Flow: the query geo-routes from the sink to the home node (collecting
// the KNNB information list); the home node estimates the boundary R and
// floods a tree-construction message inside it. Every in-boundary node
// joins under the first builder it hears and rebroadcasts; a parent learns
// its children by overhearing their rebroadcasts. Aggregation runs leaf-
// to-root: leaves report after a short grace period, parents merge child
// aggregates and forward up when all expected children reported or a
// deadline expires. Mobility breaks parent links; the repair path re-sends
// the partial aggregate toward the home node via a fresh neighbor ("data
// may be forwarded again and again between new and old tree nodes"),
// which is exactly the maintenance overhead the paper attributes KPT's
// latency and energy growth to. Finally the home node sorts candidates
// and routes the k best back to the sink in a bundle.

#ifndef DIKNN_BASELINES_KPT_H_
#define DIKNN_BASELINES_KPT_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "knn/query.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// KPT tunables.
struct KptParams {
  /// Max rebroadcast jitter (s). Must spread the boundary-wide build
  /// flood over enough air time that the ~1.5 ms frames do not all
  /// collide; ~20 same-level nodes need on the order of 100+ ms.
  double build_jitter = 0.15;
  double leaf_wait = 0.1;        ///< Grace before a leaf reports.
  /// Per-level aggregation wait (s). Must exceed build_jitter plus the
  /// child aggregate's air time, or parents report before their children
  /// have even joined.
  double agg_slot = 0.22;
  double child_grace = 0.36;     ///< Extra wait for missing children (s);
                                 ///  this is where mobility- and
                                 ///  collision-induced losses turn into
                                 ///  the latency growth of Figs. 8(a)/9(a).
  int max_grace_rounds = 2;      ///< Deadline extensions per tree node.
  SimTime query_timeout = 8.0;   ///< Sink-side completion timeout.
  /// Use the *original* KPT conservative boundary R = k * MHD instead of
  /// KNNB (the paper replaced it for the comparison because "the query
  /// execution can easily flood the entire network" — with this on, it
  /// does). Off by default, matching the paper's KPT+KNNB setup.
  bool conservative_boundary = false;
  double mean_hop_distance = 15.0;  ///< MHD for the conservative bound.
};

/// KPT behaviour counters.
struct KptStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t timeouts = 0;
  uint64_t tree_joins = 0;
  uint64_t build_broadcasts = 0;
  uint64_t aggregates_sent = 0;
  uint64_t parent_losses = 0;   ///< Unicast-to-parent failures.
  uint64_t repairs = 0;         ///< Re-sends via a substitute parent.
  uint64_t data_lost = 0;       ///< Aggregates dropped after repair failed.
};

/// KPT with KNNB boundary estimation (the paper's "KPT+KNNB").
class KptKnnb : public KnnProtocol {
 public:
  KptKnnb(Network* network, GpsrRouting* gpsr, KptParams params = {});

  void Install() override;
  void IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) override;
  std::string name() const override { return "KPT+KNNB"; }
  size_t pending_queries() const override { return ledger_.size(); }

  const KptStats& stats() const { return stats_; }

 private:
  // -------- wire messages --------

  struct QueryBootstrap : Message {
    KnnQuery query;
  };

  struct TreeBuildMessage : Message {
    KnnQuery query;
    double radius = 0.0;    ///< KNNB boundary.
    int level = 0;          ///< Sender's tree depth (home node = 0).
    int depth_estimate = 0; ///< ceil(R / r) + 1, for deadlines.
    NodeId home = kInvalidNodeId;
    Point home_position;
  };

  struct AggregateMessage : Message {
    uint64_t query_id = 0;
    std::vector<KnnCandidate> candidates;  ///< Pruned to k.
    NodeId home = kInvalidNodeId;   ///< For stray re-forwarding.
    Point home_position;
  };

  struct ResultMessage : Message {
    uint64_t query_id = 0;
    std::vector<KnnCandidate> candidates;
  };

  // -------- per (query, node) tree state --------

  struct TreeNode {
    KnnQuery query;
    NodeId parent = kInvalidNodeId;
    int level = 0;
    int depth_estimate = 0;
    NodeId home = kInvalidNodeId;
    Point home_position;
    std::unordered_set<NodeId> expected_children;
    std::unordered_set<NodeId> reported_children;
    std::vector<KnnCandidate> buffer;  ///< Own + children data.
    bool sent_up = false;
    int grace_rounds = 0;     ///< Deadline extensions granted so far.
    EventId deadline_event = 0;
  };

  /// KPT's fields of a query's ledger entry.
  struct SinkFields {
    Point q;
    int k = 1;
  };
  using Ledger = QueryLedger<KnnResult, SinkFields>;

  static uint64_t TreeKey(uint64_t query_id, NodeId node) {
    return (query_id << 20) | static_cast<uint64_t>(node & 0xfffff);
  }

  void OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg);
  void OnTreeBuild(Node* node, const Packet& packet);
  void MaybeSendUp(uint64_t key);
  void SendAggregateUp(Node* node, TreeNode* state);
  void OnAggregate(Node* node, NodeId from, const AggregateMessage& msg);
  void FinishAtHome(Node* node, TreeNode* state);
  void OnResult(Node* node, const GeoRoutedMessage& msg);

  Network* network_;
  GpsrRouting* gpsr_;
  KptParams params_;
  KptStats stats_;

  Ledger ledger_;
  std::unordered_map<uint64_t, TreeNode> tree_;      // By TreeKey.
};

}  // namespace diknn

#endif  // DIKNN_BASELINES_KPT_H_
