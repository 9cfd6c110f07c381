// One serpentine-sweep engine for the two itinerary protocols DIKNN
// descends from: the window query of Xu et al. (ICDE 2006, the paper's
// reference [31]) and serial data fusion along a sweep (Patil, Das &
// Nasipuri, SECON 2004, reference [28]).
//
// A query is GPSR-routed from the sink to the start of a serpentine path
// over its rectangle (line spacing w = sqrt(3)/2 * r). The node carrying
// it, the Q-node, broadcasts a probe; the in-region neighbours that hear
// it, the D-nodes, answer after a contention delay. When the collection
// window closes the Q-node folds the replies and then its own reading
// into the carried state and forwards it to the neighbour nearest the
// next anchor on the path. The last Q-node GPSR-routes the result home.
//
// ItinerarySweep<Payload> owns all of that: the timeout budget, fork
// suppression, collection windows, contention replies, void skips, the
// forward retry and teardown. The payload supplies only what differs
// between the protocols: window.h collects every node, aggregate.h
// carries a constant-size count/sum/min/max.
//
// Allocation discipline mirrors DIKNN (docs/PACKET_PLANE.md): pooled
// sweep-state envelopes, flat per-query maps, recycled reply buffers.

#ifndef DIKNN_KNN_SWEEP_H_
#define DIKNN_KNN_SWEEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/alloc_probe.h"
#include "core/flat_map.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// Serpentine sweep path over a rectangle: horizontal scan lines spaced
/// `spacing` apart, connected by vertical steps, alternating direction.
/// Arc-length parameterized like Itinerary.
class SerpentinePath {
 public:
  SerpentinePath(const Rect& window, double spacing);

  double TotalLength() const { return total_length_; }
  Point PointAt(double s) const;
  int num_lines() const { return num_lines_; }

 private:
  Rect window_;
  double spacing_;
  int num_lines_;
  double total_length_;
};

/// Tunables of the sweep, shared by window and aggregate queries.
struct WindowQueryParams {
  double width = 0.0;            ///< Sweep spacing; 0 = sqrt(3)/2 * r.
  double time_unit = 0.018;      ///< Collection slot per D-node (s).
  double step_fraction = 0.8;    ///< Q-node hop length (fraction of r).
  int max_void_skips = 6;
  SimTime query_timeout = 12.0;
};

/// Behaviour counters.
struct WindowQueryStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t timeouts = 0;
  uint64_t qnode_hops = 0;
  uint64_t replies = 0;
  uint64_t voids = 0;
  /// Sweep events that arrived after their query completed and were
  /// dropped instead of resurrecting per-query state.
  uint64_t stale_drops = 0;
  /// Open collection windows cancelled by query completion.
  uint64_t collections_cancelled = 0;
};

/// The sweep engine. `Payload` supplies:
///  - `Value`, the state carried hop to hop and each collection window's
///    accumulator; `Reading`, what one node reports; `Result`, what the
///    sink's handler receives.
///  - The message types `kQuery`, `kProbe`, `kReply`, `kForward`,
///    `kResult`, and the wire sizes `kBootstrapBytes`, `kReplyBytes`,
///    `CarriedBytes(value)` and `ResultBytes(value)`.
///  - `Read(node, now)`; `Add(value, reading)`, `Merge(value, value)` and
///    `Clear(value)`, which keeps capacity.
///  - `Deliver(value, region, result)`, the sink step.
///  - `kReofferFailedReplies`: whether a D-node whose reply send failed
///    may answer the query's next probe. The send fails when every ACK
///    is lost, even if the reply itself arrived, so this is only safe
///    when the sink step dedups by node id.
template <typename Payload>
class ItinerarySweep {
 public:
  using Result = typename Payload::Result;
  using Handler = std::function<void(const Result&)>;

  ItinerarySweep(Network* network, GpsrRouting* gpsr, Payload payload,
                 WindowQueryParams params);

  // The installed handlers and scheduled events capture `this`.
  ItinerarySweep(const ItinerarySweep&) = delete;
  ItinerarySweep& operator=(const ItinerarySweep&) = delete;

  /// Registers handlers on every node. Call once.
  void Install();

  /// Issues a query over `region` from `sink`; `handler` fires exactly
  /// once.
  void IssueQuery(NodeId sink, const Rect& region, Handler handler);

  const WindowQueryStats& stats() const { return stats_; }

  /// Per-query entries still alive across all containers. Zero after a
  /// drained run; the lifecycle-soak tests assert on it.
  size_t PerQueryResidue() const {
    return ledger_.size() + collections_.size() + replied_.size() +
           last_hop_seen_.size();
  }

  /// Heap allocations attributed to the protocol's handlers and events.
  const AllocCounters& alloc_counters() const { return knn_allocs_; }
  void ResetAllocCounters() { knn_allocs_.Reset(); }

 private:
  using Value = typename Payload::Value;
  using Reading = typename Payload::Reading;

  struct SweepQuery {
    uint64_t id = 0;
    Rect region;
    NodeId sink = kInvalidNodeId;
    Point sink_position;
  };

  struct QueryBootstrap : Message {
    SweepQuery query;
  };

  struct SweepState {
    SweepQuery query;
    double progress = 0.0;
    int hop_count = 0;
    Value value;
  };

  /// Pooled envelope the sweep state rides in, hop to hop (recycled; a
  /// collected list keeps its capacity).
  struct ForwardMessage : Message {
    SweepState state;

    void Reuse() {
      state.query = SweepQuery{};
      state.progress = 0.0;
      state.hop_count = 0;
      Payload::Clear(&state.value);
    }
  };

  struct ProbeMessage : Message {
    uint64_t query_id = 0;
    Rect region;
    Point qnode_position;
    double reference_angle = 0.0;
    double collect_window = 0.0;
  };

  struct ReplyMessage : Message {
    uint64_t query_id = 0;
    Reading reading{};
  };

  struct ResultMessage : Message {
    uint64_t query_id = 0;
    Value value;

    void Reuse() {
      query_id = 0;
      Payload::Clear(&value);
    }
  };

  /// The sweep's field of a query's ledger entry.
  struct SinkFields {
    Rect region;
  };
  using Ledger = QueryLedger<Result, SinkFields>;

  struct Collection {
    std::shared_ptr<ForwardMessage> fwd;
    NodeId qnode = kInvalidNodeId;
    Value replies;
    EventId finish_event = 0;
  };

  /// True while the query has neither completed nor timed out. Every
  /// handler that touches per-query state checks this first, so stale
  /// in-flight events cannot resurrect entries after teardown.
  bool QueryActive(uint64_t query_id) const {
    return ledger_.Contains(query_id);
  }

  double EffectiveWidth() const;
  void OnEntryArrival(Node* node, const GeoRoutedMessage& msg);
  void StartQNode(Node* node, std::shared_ptr<ForwardMessage> fwd);
  void FinishCollection(uint64_t query_id);
  void OnProbe(Node* node, const ProbeMessage& probe);
  void OnReply(Node* node, const ReplyMessage& reply);
  void ForwardAlongSweep(Node* node, std::shared_ptr<ForwardMessage> fwd);
  void FinishSweep(Node* node, const SweepState& state);
  void OnResult(Node* node, const GeoRoutedMessage& msg);
  void OnTimeout(uint64_t query_id);
  void TeardownQueryState(uint64_t query_id);

  // Freelist-backed per-query containers (see diknn.h for the rationale).
  FlatSet<NodeId>& RepliedFor(uint64_t query_id);
  void RecycleReplied(uint64_t query_id);
  void RecycleReplies(Value* replies);

  Network* network_;
  GpsrRouting* gpsr_;
  Payload payload_;
  WindowQueryParams params_;
  WindowQueryStats stats_;

  Ledger ledger_;
  FlatMap<uint64_t, Collection> collections_;
  FlatMap<uint64_t, FlatSet<NodeId>> replied_;
  FlatMap<uint64_t, int> last_hop_seen_;

  std::vector<FlatSet<NodeId>> replied_freelist_;
  std::vector<Value> replies_freelist_;
  AllocCounters knn_allocs_;
};

}  // namespace diknn

#endif  // DIKNN_KNN_SWEEP_H_
