// Shared KNN query types and the protocol interface implemented by DIKNN
// and every baseline, so the experiment harness can drive them uniformly.

#ifndef DIKNN_KNN_QUERY_H_
#define DIKNN_KNN_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/alloc_probe.h"
#include "core/geometry.h"
#include "net/packet.h"
#include "sim/event_queue.h"

namespace diknn {

/// A snapshot KNN query (Definition 1 of the paper).
struct KnnQuery {
  uint64_t id = 0;          ///< Unique per query.
  Point q;                  ///< Query point.
  int k = 1;                ///< Number of nearest neighbors requested.
  NodeId sink = kInvalidNodeId;  ///< Issuing node s.
  Point sink_position;      ///< Sink position at issue time (return target).
  double assurance_gain = 0.1;   ///< g in [0,1] (Section 4.3, mobility).
};

/// One reported neighbor candidate.
struct KnnCandidate {
  NodeId id = kInvalidNodeId;
  Point position;           ///< Position when the node reported.
  double speed = 0.0;       ///< Speed when the node reported.
  SimTime sampled_at = 0.0; ///< When the report was generated.
};

/// Final (possibly partial) answer delivered at the sink.
struct KnnResult {
  uint64_t query_id = 0;
  std::vector<KnnCandidate> candidates;  ///< Best-first, at most k entries.
  SimTime issued_at = 0.0;
  SimTime completed_at = 0.0;
  bool timed_out = false;   ///< True if completed by timeout, not receipt.

  /// Query latency in seconds.
  double Latency() const { return completed_at - issued_at; }

  /// Ids of the reported candidates, in rank order.
  std::vector<NodeId> CandidateIds() const;
};

/// Invoked at the sink when a query completes (or times out).
using ResultHandler = std::function<void(const KnnResult&)>;

/// Common interface for in-network KNN query processors.
class KnnProtocol {
 public:
  virtual ~KnnProtocol() = default;

  /// Registers the protocol's message handlers on every node. Call once,
  /// before issuing queries.
  virtual void Install() = 0;

  /// Issues a KNN query from node `sink` for the k nodes nearest to `q`.
  /// `handler` fires exactly once at completion or timeout.
  virtual void IssueQuery(NodeId sink, Point q, int k,
                          ResultHandler handler) = 0;

  /// Short display name ("DIKNN", "KPT+KNNB", "PeerTree", ...).
  virtual std::string name() const = 0;

  /// Queries issued and not yet completed: the size of the protocol's
  /// sink-side ledger (knn/query_ledger.h). Zero once a run has drained.
  virtual size_t pending_queries() const = 0;

  /// Heap allocations attributed to the protocol's handlers and events
  /// (docs/PACKET_PLANE.md). Protocols that do not arm an AllocScope
  /// return the default zero counters.
  virtual const AllocCounters& alloc_counters() const {
    static const AllocCounters kNone;
    return kNone;
  }
  virtual void ResetAllocCounters() {}
};

/// Keeps the `count` candidates nearest to `q` in `candidates`, best
/// first, deduplicating by node id (keeping the freshest report).
void PruneCandidates(std::vector<KnnCandidate>* candidates, const Point& q,
                     size_t count);

/// The `count` records of `table` nearest to `q`, in PruneCandidates'
/// order (distance to `q`, then id). A table holds one record per id, so
/// there is no dedup pass: this is how a Peer-tree clusterhead and the
/// Centralized station answer a KNN lookup.
std::vector<KnnCandidate> NearestRecords(
    const std::unordered_map<NodeId, KnnCandidate>& table, const Point& q,
    size_t count);

/// Accuracy of a returned id set against the ground truth: the fraction
/// of true KNNs present in `returned` (the paper's query accuracy, scored
/// against the true KNN at issue time for pre-accuracy and at receipt
/// time for post-accuracy).
double Accuracy(const std::vector<NodeId>& returned,
                const std::vector<NodeId>& truth);

}  // namespace diknn

#endif  // DIKNN_KNN_QUERY_H_
