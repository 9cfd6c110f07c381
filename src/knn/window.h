// Itinerary-based window (range) queries.
//
// DIKNN's itinerary concept descends from the window-query engine of Xu
// et al. (ICDE 2006, the paper's reference [31]): a rectangular query
// window is swept by a serpentine (boustrophedon) itinerary with line
// spacing w = sqrt(3)/2 * r, collecting every node inside the window.
// The sweep itself (probe, contention-delayed replies, forward, result)
// is the ItinerarySweep engine of sweep.h, shared with the aggregate
// query of aggregate.h; this payload carries the growing list of
// reporting nodes. It serves both as a standalone query facility and as
// the "infrastructure-free window query" point of comparison.

#ifndef DIKNN_KNN_WINDOW_H_
#define DIKNN_KNN_WINDOW_H_

#include <cstdint>
#include <vector>

#include "knn/query.h"
#include "knn/sweep.h"

namespace diknn {

/// Result of a window query: the reporting nodes, unordered.
struct WindowResult {
  uint64_t query_id = 0;
  std::vector<KnnCandidate> nodes;
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  bool timed_out = false;

  double Latency() const { return completed_at - issued_at; }
};

/// Sweep payload of the window query: every in-window node's report,
/// collected hop to hop, so the carried state grows by 12 B per node.
struct WindowPayload {
  using Value = std::vector<KnnCandidate>;
  using Reading = KnnCandidate;
  using Result = WindowResult;

  static constexpr MessageType kQuery = MessageType::kWindowQuery;
  static constexpr MessageType kProbe = MessageType::kWindowProbe;
  static constexpr MessageType kReply = MessageType::kWindowReply;
  static constexpr MessageType kForward = MessageType::kWindowForward;
  static constexpr MessageType kResult = MessageType::kWindowResult;
  static constexpr size_t kBootstrapBytes = 22;
  static constexpr size_t kReplyBytes = kQueryResponseBytes;
  static constexpr size_t kCandidateBytes = 12;
  /// Re-offered replies are deduplicated by id in Deliver.
  static constexpr bool kReofferFailedReplies = true;

  static size_t CarriedBytes(const Value& v) {
    return 24 + v.size() * kCandidateBytes;
  }
  static size_t ResultBytes(const Value& v) {
    return 10 + v.size() * kCandidateBytes;
  }

  Reading Read(Node* node, SimTime now) const {
    return {node->id(), node->Position(), node->Speed(), now};
  }
  static void Add(Value* v, const Reading& r) { v->push_back(r); }
  static void Merge(Value* v, const Value& other) {
    v->insert(v->end(), other.begin(), other.end());
  }
  static void Clear(Value* v) { v->clear(); }

  /// Deduplicates by id: forks and re-offered replies may report a node
  /// twice. Reports keep their collection-time positions, even of nodes
  /// that have since left the window.
  static void Deliver(const Value& v, const Rect& window, Result* out) {
    out->nodes = v;
    PruneCandidates(&out->nodes, window.Center(), out->nodes.size());
  }
};

/// The itinerary window query protocol.
class ItineraryWindowQuery : public ItinerarySweep<WindowPayload> {
 public:
  ItineraryWindowQuery(Network* network, GpsrRouting* gpsr,
                       WindowQueryParams params = {})
      : ItinerarySweep(network, gpsr, WindowPayload{}, params) {}
};

}  // namespace diknn

#endif  // DIKNN_KNN_WINDOW_H_
