// DIKNN — Density-aware Itinerary KNN query processing (the paper's core
// contribution, Sections 3 and 4).
//
// Execution phases:
//   1. Routing: the query is geo-routed (GPSR) from the sink s to the home
//      node nearest the query point q, collecting the information list L
//      (per-hop locations and newly-encountered neighbor counts) on the way.
//   2. Boundary estimation: the home node runs KNNB over L to obtain the
//      KNN boundary radius R.
//   3. Dissemination: the boundary is split into S sectors; one
//      sub-itinerary per sector is traversed concurrently. Each Q-node
//      broadcasts a probe, collects D-node replies under the
//      contention-based scheme (reply delay proportional to the angle from
//      a reference line), merges them into the partial result, and
//      forwards the query to the next Q-node along the itinerary. Voids
//      are bypassed by skipping ahead along the conceptual path.
//      Rendezvous messages exchanged where adjacent sectors' adj-segments
//      meet let sectors share explored-node statistics and adjust R
//      dynamically (spatial irregularity, Section 4.3); the last Q-node
//      applies the mobility assurance expansion R' = R + g*(te-ts)*mu.
//      Finally each sector's aggregate is geo-routed back to the sink.
//
// Steady-state allocation discipline (docs/PACKET_PLANE.md): the sector
// state travels Q-node to Q-node inside one pooled ForwardMessage whose
// buffers are recycled (MessagePool::MakeReusable), per-query bookkeeping
// lives in flat open-addressing maps, reply/dedup containers are recycled
// through freelists, and the itinerary geometry is rebuilt in a member
// scratch. After warmup a query hop costs zero heap allocations on the
// protocol side; the `knn` AllocCounters armed in every handler measure
// exactly that.

#ifndef DIKNN_KNN_DIKNN_H_
#define DIKNN_KNN_DIKNN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/alloc_probe.h"
#include "core/flat_map.h"
#include "knn/itinerary.h"
#include "knn/knnb.h"
#include "knn/query.h"
#include "knn/query_ledger.h"
#include "net/network.h"
#include "routing/gpsr.h"

namespace diknn {

/// How a Q-node schedules its D-nodes' replies (Section 3.3, footnote 1:
/// "the data collection scheme introduced in this paper combines both the
/// token ring based and contention based scheme").
enum class CollectionScheme {
  /// Pure contention: reply delay proportional to the angle between the
  /// probe's reference line and the Q-node -> D-node line.
  kContention,
  /// Pure token ring: the probe carries a precedence list of the Q-node's
  /// known in-boundary neighbors; listed D-nodes reply in list order, one
  /// time unit m apart. Nodes the Q-node does not know stay silent.
  kPrecedenceList,
  /// The paper's combination: listed nodes use their precedence slot;
  /// unlisted nodes contend by angle in a tail window afterwards, so
  /// neighbor-table staleness costs nothing.
  kHybrid,
};

/// DIKNN tunables; defaults reproduce the paper's Section 5.1 table.
struct DiknnParams {
  int num_sectors = 8;          ///< S.
  double width = 0.0;           ///< Itinerary width w; 0 = sqrt(3)/2 * r.
  double time_unit = 0.018;     ///< m: per-D-node collection time unit (s).
  CollectionScheme collection_scheme = CollectionScheme::kHybrid;
  double assurance_gain = 0.1;  ///< g in [0, 1].
  bool rendezvous = true;       ///< Dynamic boundary adjustment (4.3).
  bool mobility_assurance = true;  ///< R' expansion at itinerary end (4.3).
  double step_fraction = 0.8;   ///< Q-node hop length as a fraction of r.
  int max_void_skips = 6;       ///< Lookahead extensions before giving up.
  int max_extra_rings = 4;      ///< Cap on dynamic boundary expansion.
  KnnbAreaModel knnb_area_model = KnnbAreaModel::kLune;  ///< See knnb.h.
  SimTime query_timeout = 8.0;  ///< Sink-side completion timeout.
  /// Once sector results start arriving, the sink stops waiting for the
  /// stragglers this long after the latest arrival (a lost bundle would
  /// otherwise stall the query until query_timeout).
  SimTime result_grace = 1.5;
};

/// Aggregate DIKNN behaviour counters (across all queries).
struct DiknnStats {
  uint64_t queries_issued = 0;
  uint64_t queries_completed = 0;
  uint64_t timeouts = 0;
  uint64_t home_node_arrivals = 0;
  uint64_t qnode_hops = 0;
  uint64_t probes_sent = 0;
  uint64_t replies_sent = 0;
  uint64_t sector_results_sent = 0;
  uint64_t sector_results_received = 0;
  uint64_t voids_encountered = 0;
  uint64_t sectors_abandoned = 0;  ///< Sub-itineraries ended by a void.
  uint64_t rendezvous_sent = 0;
  uint64_t rendezvous_merged = 0;
  uint64_t boundary_truncations = 0;
  uint64_t boundary_extensions = 0;
  uint64_t assurance_expansions = 0;
  double knnb_radius_sum = 0.0;    ///< For mean-radius diagnostics.
  uint64_t knnb_runs = 0;
  // Lifecycle hardening counters (failure paths).
  uint64_t stale_branches_dropped = 0;  ///< Work for completed queries.
  uint64_t dead_node_drops = 0;    ///< Traversal abandoned at a dead node.
  uint64_t collections_cancelled = 0;  ///< Open windows closed at completion.
};

/// Sizes of every per-query container, for lifecycle auditing. Invariant:
/// immediately after CompleteQuery(id) returns, no container retains an
/// entry for `id`, and after a fully drained run every count is zero.
struct DiknnLifecycleCounts {
  size_t pending = 0;
  size_t collections = 0;
  size_t last_hop_seen = 0;
  size_t finished_sectors = 0;
  size_t replied_queries = 0;
  size_t replied_entries = 0;          ///< Node ids across all queries.
  size_t heard_rendezvous_entries = 0; ///< Buffered broadcasts, all nodes.

  /// Entries that must drain to zero with the queries that own them.
  size_t TotalPerQuery() const {
    return pending + collections + last_hop_seen + finished_sectors +
           replied_queries + replied_entries + heard_rendezvous_entries;
  }
};

/// The DIKNN protocol. One instance manages the whole network (handlers
/// dispatch on the node the message arrived at, mirroring per-node state).
class Diknn : public KnnProtocol {
 public:
  /// `network` and `gpsr` must outlive the protocol. `gpsr->Install()`
  /// must have been called (or will be, before queries are issued).
  Diknn(Network* network, GpsrRouting* gpsr, DiknnParams params = {});

  void Install() override;
  void IssueQuery(NodeId sink, Point q, int k, ResultHandler handler) override;
  std::string name() const override { return "DIKNN"; }
  size_t pending_queries() const override { return ledger_.size(); }

  const DiknnStats& stats() const { return stats_; }
  const DiknnParams& params() const { return params_; }

  /// Observer invoked on every Q-node hop: (query id, sector, position).
  /// Used by the Fig. 7 visualization bench to trace itineraries.
  using HopObserver = std::function<void(uint64_t, int, Point)>;
  void set_hop_observer(HopObserver observer) {
    hop_observer_ = std::move(observer);
  }

  /// Observer invoked after a query's per-query state has been fully torn
  /// down (and before the result handler runs). The LifecycleAuditor hooks
  /// this to assert the teardown left no residue.
  using CompletionObserver = std::function<void(uint64_t query_id,
                                                bool timed_out)>;
  void set_completion_observer(CompletionObserver observer) {
    completion_observer_ = std::move(observer);
  }

  /// Query tracer: records the query/route/sector/hop/collection span
  /// tree and protocol events (void skips, rendezvous, boundary
  /// adjustments) for sampled queries. Not owned; may be null. When the
  /// workload driver holds an ambient trace context at IssueQuery time the
  /// protocol joins that trace; otherwise it starts its own.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Current size of every per-query container (lifecycle auditing).
  DiknnLifecycleCounts lifecycle_counts() const;

  /// Number of container entries still referencing `query_id`. Zero for
  /// any completed query; used by the LifecycleAuditor after each
  /// completion.
  size_t ResidueFor(uint64_t query_id) const;

  /// Heap allocations attributed to the protocol's handlers and events
  /// (docs/PACKET_PLANE.md). Flat after warmup; the bench_micro self-check
  /// asserts it.
  const AllocCounters& alloc_counters() const override { return knn_allocs_; }
  void ResetAllocCounters() override { knn_allocs_.Reset(); }

 private:
  // -------- wire messages --------

  /// Geo-routed sink -> home-node bootstrap.
  struct QueryBootstrap : Message {
    KnnQuery query;
  };

  /// Per-sector dissemination state, carried Q-node to Q-node.
  struct SectorState {
    KnnQuery query;
    int sector = 0;
    double radius = 0.0;        ///< Current boundary radius for the sector.
    double progress = 0.0;      ///< Arc-length progress along the itinerary.
    int extra_rings = 0;        ///< Dynamic expansion applied so far.
    std::vector<KnnCandidate> best;  ///< Pruned to k, best first.
    int explored = 0;           ///< Nodes that contributed data so far.
    double max_speed_seen = 0;  ///< mu for the mobility assurance.
    SimTime dissemination_start = 0;  ///< ts.
    int last_rendezvous_ring = -1;
    bool assurance_applied = false;
    int void_skips_total = 0;
    /// Q-node hop counter, used to suppress duplicate traversal branches
    /// (an ACK loss can make a sender believe its forward failed and
    /// retry via another node while the original recipient proceeds).
    int hop_count = 0;
    /// Explored-node counts by sector, learned at rendezvous; -1 unknown.
    /// Indexed by sector id, own entry kept current.
    std::vector<int> sector_explored;
    /// Trace attribution: (trace, sector-span) of the owning query.
    /// Simulation metadata; not counted by WireBytes.
    TraceContext trace;

    size_t WireBytes() const;

    /// MessagePool::MakeReusable contract: back to the default state,
    /// vector capacity retained.
    void Reuse() {
      query = KnnQuery{};
      sector = 0;
      radius = 0.0;
      progress = 0.0;
      extra_rings = 0;
      best.clear();
      explored = 0;
      max_speed_seen = 0;
      dissemination_start = 0;
      last_rendezvous_ring = -1;
      assurance_applied = false;
      void_skips_total = 0;
      hop_count = 0;
      sector_explored.clear();
      trace = TraceContext{};
    }
  };

  /// The pooled envelope the sector state rides in. The same object flows
  /// through the channel, the receiving handler's copy, the open
  /// collection window, and the itinerary forwarder, so one recycled
  /// buffer per in-flight sector branch serves the whole traversal.
  struct ForwardMessage : Message {
    SectorState state;

    void Reuse() { state.Reuse(); }
  };

  struct ProbeMessage : Message {
    uint64_t query_id = 0;
    int sector = 0;
    Point q;
    double radius = 0.0;
    Point qnode_position;
    double reference_angle = 0.0;
    double window = 0.0;       ///< Collection window length (s).
    /// Precedence list (kPrecedenceList / kHybrid): known in-boundary
    /// neighbors in reply order; listed nodes answer at index * m.
    std::vector<NodeId> precedence;
    double tail_start = 0.0;   ///< Contention tail begins here (kHybrid).
    /// (trace, collection-span) so D-node replies attribute to the window.
    TraceContext trace;

    void Reuse() {
      query_id = 0;
      sector = 0;
      q = Point{};
      radius = 0.0;
      qnode_position = Point{};
      reference_angle = 0.0;
      window = 0.0;
      precedence.clear();
      tail_start = 0.0;
      trace = TraceContext{};
    }
  };

  struct ReplyMessage : Message {
    uint64_t query_id = 0;
    int sector = 0;
    KnnCandidate candidate;
  };

  struct RendezvousMessage : Message {
    uint64_t query_id = 0;
    int sector = 0;
    int ring = 0;
    int explored = 0;
  };

  /// Geo-routed last-Q-node -> sink result bundle.
  struct SectorResult : Message {
    uint64_t query_id = 0;
    int sector = 0;
    std::vector<KnnCandidate> candidates;
    int explored = 0;

    void Reuse() {
      query_id = 0;
      sector = 0;
      candidates.clear();
      explored = 0;
    }
  };

  // -------- sink-side state --------

  /// DIKNN's fields of a query's ledger entry.
  struct SinkFields {
    Point q;
    int k = 1;
    std::vector<KnnCandidate> candidates;
    FlatSet<int> sectors_received;  ///< Dedups branch forks.
    /// Root trace context; unsampled when tracing is off.
    TraceContext trace;
    SpanId route_span = 0;
  };
  using Ledger = QueryLedger<KnnResult, SinkFields>;

  // -------- Q-node-side transient state --------

  struct Collection {
    /// The pooled forward envelope whose state this window accumulates
    /// into; handed back to ForwardAlongItinerary when the window closes.
    std::shared_ptr<ForwardMessage> fwd;
    NodeId qnode = kInvalidNodeId;
    std::vector<KnnCandidate> replies;
    /// The scheduled FinishCollection event, cancelled if the query
    /// completes (or the collection is superseded) while the window is
    /// still open.
    EventId finish_event = 0;
    /// Open hop/collection spans, closed when the window finishes.
    SpanId hop_span = 0;
    SpanId collection_span = 0;
  };

  static uint64_t CollectionKey(uint64_t query_id, int sector) {
    return (query_id << 8) | static_cast<uint64_t>(sector & 0xff);
  }

  // -------- handlers --------

  // Phase 2 entry: KNNB at the home node, then sector spawn.
  void OnHomeNodeArrival(Node* node, const GeoRoutedMessage& msg);
  // A Q-node received the per-sector state: probe and collect.
  void StartQNode(Node* node, std::shared_ptr<ForwardMessage> fwd);
  // Collection window elapsed: aggregate, adjust, forward or finish.
  void FinishCollection(uint64_t key);
  // D-node heard a probe.
  void OnProbe(Node* node, const ProbeMessage& probe);
  // Q-node received a D-node reply.
  void OnReply(Node* node, const ReplyMessage& reply);
  // Any node heard a rendezvous broadcast: buffer it.
  void OnRendezvous(Node* node, const RendezvousMessage& msg);
  // Sector aggregate arrived (hopefully at the sink).
  void OnSectorResult(Node* node, const GeoRoutedMessage& msg);

  // -------- helpers --------

  // Rebuilds the member itinerary scratch for `state` and returns it.
  // The reference is valid until the next RebuildItinerary call; every
  // nested call (FinishSector -> route -> deliver -> spawn) happens after
  // the caller's last read.
  Itinerary& RebuildItinerary(const SectorState& state);
  // Applies rendezvous-based dynamic boundary adjustment; returns true if
  // the sub-itinerary should stop now.
  bool AdjustBoundary(Node* node, SectorState* state, int current_ring);
  // Chooses the next Q-node and forwards; finishes the sector on a void.
  void ForwardAlongItinerary(Node* node, std::shared_ptr<ForwardMessage> fwd);
  // Routes the sector aggregate back to the sink. Consumes the state's
  // candidate list.
  void FinishSector(Node* node, SectorState* state);
  // Completes a pending query at the sink (idempotent).
  void CompleteQuery(uint64_t query_id, bool timed_out);

  // The reply-dedup set for `query_id`, recycled through a freelist so
  // steady-state queries reuse grown tables. The reference is valid until
  // the next insert into replied_ (set-level inserts are fine).
  FlatSet<NodeId>& RepliedFor(uint64_t query_id);
  // Moves a cleared container to its freelist for the next query.
  void RecycleReplied(uint64_t query_id);
  void RecycleReplies(std::vector<KnnCandidate>* replies);

  double EffectiveWidth() const;

  // True while `query_id` is in flight at the sink. Every handler that
  // touches per-query state guards on this: once CompleteQuery tears a
  // query down, straggling traversal work (forks, in-flight forwards,
  // late probes) must be dropped instead of resurrecting map entries.
  bool QueryActive(uint64_t query_id) const {
    return ledger_.Contains(query_id);
  }

  Network* network_;
  GpsrRouting* gpsr_;
  DiknnParams params_;
  DiknnStats stats_;
  HopObserver hop_observer_;
  CompletionObserver completion_observer_;
  Tracer* tracer_ = nullptr;

  Ledger ledger_;
  FlatMap<uint64_t, Collection> collections_;
  // Highest hop_count seen per (query, sector); lower-or-equal arrivals
  // are duplicate traversal branches and are dropped.
  FlatMap<uint64_t, int> last_hop_seen_;
  // Sectors whose aggregate has already been routed to the sink; further
  // FinishSector calls for them are stale fork branches.
  FlatSet<uint64_t> finished_sectors_;

  // Per-node state mirrors (indexed by node id, as a real deployment would
  // store them on the node itself):
  // nodes that already replied to a query, per query id.
  FlatMap<uint64_t, FlatSet<NodeId>> replied_;
  // recently heard rendezvous info, per node id. Emptied vectors stay in
  // the map so their capacity serves the node's next query.
  struct HeardRendezvous {
    RendezvousMessage msg;
    SimTime heard_at = 0;
  };
  FlatMap<NodeId, std::vector<HeardRendezvous>> heard_rendezvous_;

  // Scratch + freelists (allocation-free steady state).
  Itinerary itinerary_scratch_;
  std::vector<NeighborEntry> in_boundary_scratch_;
  std::vector<FlatSet<NodeId>> replied_freelist_;
  std::vector<std::vector<KnnCandidate>> replies_freelist_;
  AllocCounters knn_allocs_;
};

}  // namespace diknn

#endif  // DIKNN_KNN_DIKNN_H_
