// Query plane of the conservative parallel engine: GPSR greedy forwarding
// and DIKNN itinerary traversal (Wu et al., ICDE 2007) running across
// PDES shards, on top of the beacon substrate's neighbor tables.
//
// Why the window protocol already covers query traffic: a unicast hop is
// at least one frame air time, and the conservative lookahead L is
// exactly the largest frame air time — so a hop initiated while
// processing window k cannot take effect before window k+1. Query frames
// are therefore stamped with the window at which their destination
// applies them (>= send window + 1), routed into the owning shard's
// mailbox when the destination node is foreign, and applied at the
// window barrier in global (t, sender, seq) order. Every decision a
// query hop makes reads only state its owner is allowed to touch in the
// process phase (the destination node's own neighbor table, position,
// and the per-query fields its role owns), which keeps the SloReport and
// every query-plane traffic counter byte-equal across shard counts.
//
// Per-query state ownership is split by role, never shared:
//   * sink-owned   — the QuerySink and the launched-query list; touched
//                    only by the shard owning the sink node at that window;
//   * home-owned   — sector merge state (SectorState of the serial
//                    engine); touched only by the shard owning the
//                    query's home node.
// Replies carry the merged candidates inside the frame, so the sink
// never reads home-owned fields. When a home or sink node's bucket
// migrates to a neighbor shard, its query state migrates with it: the
// migration mailbox's release/acquire pair orders every prior state
// write before the new owner's first read (docs/ENGINE.md).
//
// The sink is the serial engine's: arrivals come from the workload
// layer's QuerySampler (the same stream and draw order as QueryDriver),
// and admission, serving, leader resolution and scoring run in the shared
// QuerySink (workload/query_sink.h). This engine keeps only what differs:
// arrivals admitted per window, the request-frame launch, the timeout
// scan on the sweep cadence, and the reply frame's conversion to an
// answer.
//
// Modeling notes (what still diverges from the serial engine): query
// packets ride an overlay and do not contend with beacons on the channel
// (the per-hop collection delay m models Q-node latency), with per-hop
// losses decided by a stateless hash and receiver-side deterministic
// retries; continuous queries run a single KNN round; candidate sets (and
// aggregate tallies) are capped at kMaxQueryCandidates; and closed-loop
// arrivals run as a fixed-rate stream of `sessions` q/s.

#ifndef DIKNN_PSIM_QUERY_PLANE_H_
#define DIKNN_PSIM_QUERY_PLANE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/geometry.h"
#include "knn/diknn.h"
#include "workload/query_sink.h"
#include "workload/workload_spec.h"

namespace diknn {

/// Candidate-set cap per query / frame (also the aggregate-tally cap).
inline constexpr uint32_t kMaxQueryCandidates = 32;
inline constexpr uint32_t kInvalidQueryNode = 0xffffffffu;
/// TTL for any single query frame, in hops.
inline constexpr uint8_t kQueryFrameTtl = 96;
/// Receiver-side re-forward attempts before a lossy hop gives up.
inline constexpr uint8_t kQueryMaxRetries = 3;
/// Query-frame slot ring length (must exceed the largest send-to-apply
/// delay: the Q-node collection delay, ~25 windows at the defaults).
inline constexpr uint32_t kQuerySlotCount = 64;

/// One KNN candidate as carried in frames and merged at the home node.
struct QueryCandidate {
  uint32_t id = kInvalidQueryNode;
  float x = 0.0f;
  float y = 0.0f;
  float d2 = 0.0f;  ///< Squared distance to the query point.
};

enum class QueryFrameKind : uint8_t {
  kRequest,       ///< Sink -> home routing (GPSR greedy).
  kItinerary,     ///< Q-node -> Q-node sector traversal.
  kSectorResult,  ///< Last Q-node -> home merge.
  kReply,         ///< Home -> sink final answer.
};

/// A unicast query-plane frame, as exchanged between shards. (t, sender,
/// seq) is globally unique — seq shares the sender node's beacon
/// sequence counter — and is the cross-shard application order.
struct PsimQueryFrame {
  SimTime t = 0.0;       ///< Logical send time (window-quantized).
  uint32_t sender = 0;
  uint32_t seq = 0;
  uint32_t dest = kInvalidQueryNode;  ///< Node that applies this frame.
  uint32_t prev = kInvalidQueryNode;  ///< Hop to exclude from greedy.
  uint32_t query = 0;    ///< Index into QueryPlaneState::queries.
  uint32_t window = 0;   ///< Window at which `dest` applies the frame.
  uint32_t agg = 0;      ///< Aggregate tally (kReply of kAggregate).
  float progress = 0.0f; ///< Arc length along the sector itinerary.
  QueryFrameKind kind = QueryFrameKind::kRequest;
  uint8_t sector = 0;
  uint8_t retries = 0;
  uint8_t hops = 0;
  uint16_t ncand = 0;
  std::array<QueryCandidate, kMaxQueryCandidates> cand;
};

/// One query. The immutable block is written single-threaded before the
/// run; the home-owned block is written only by the query's home node
/// (see header comment). The sink's per-query state lives in the
/// QuerySink.
struct PsimQuery {
  // Immutable after BuildQueryPlane.
  SimTime issue_t = 0.0;
  QueryClass cls = QueryClass::kKnn;
  Point q;
  Rect rect;             ///< Window/aggregate extent (empty otherwise).
  float radius = 0.0f;   ///< Dissemination boundary radius estimate.
  uint16_t k = 0;
  // Home-owned.
  uint32_t home = kInvalidQueryNode;
  uint8_t sectors_total = 0;
  uint8_t sectors_done = 0;
  uint16_t ncand = 0;
  uint32_t found = 0;    ///< Distinct nodes collected (aggregate tally).
  std::array<QueryCandidate, kMaxQueryCandidates> cand;
};

/// Per-shard query-plane counters. The invariant block sums to the same
/// totals at any shard count; the exchange block describes the
/// partitioning itself (like PsimStats' boundary/foreign split).
struct QueryPlaneStats {
  // Partition-invariant.
  uint64_t hops = 0;            ///< Frames applied at their destination.
  uint64_t request_hops = 0;
  uint64_t qnode_hops = 0;
  uint64_t result_hops = 0;     ///< Sector-result + reply forwards.
  uint64_t home_arrivals = 0;
  uint64_t sector_results = 0;
  uint64_t replies = 0;
  uint64_t collections = 0;     ///< Candidates inserted while collecting.
  uint64_t retries = 0;
  uint64_t drops_loss = 0;
  uint64_t drops_stuck = 0;     ///< Greedy local minimum with no fallback.
  uint64_t drops_dead = 0;
  uint64_t drops_ttl = 0;
  uint64_t late_replies = 0;    ///< Replies after the query resolved.
  // Partition-dependent exchange counters.
  uint64_t boundary_frames = 0; ///< Query frames mailed to a neighbor.
  uint64_t foreign_frames = 0;  ///< Query frames drained from neighbors.
  uint64_t remails = 0;         ///< Re-routed after a dest migration.
  uint64_t state_migrations = 0;///< Node handoffs carrying query state.

  QueryPlaneStats& operator+=(const QueryPlaneStats& o);

  /// The partition-invariant subset, comparable across shard counts.
  struct Invariants {
    uint64_t hops, request_hops, qnode_hops, result_hops;
    uint64_t home_arrivals, sector_results, replies, collections;
    uint64_t retries, drops_loss, drops_stuck, drops_dead, drops_ttl;
    uint64_t late_replies;
    bool operator==(const Invariants&) const = default;
  };
  Invariants InvariantCounters() const {
    return {hops,        request_hops,   qnode_hops,  result_hops,
            home_arrivals, sector_results, replies,   collections,
            retries,     drops_loss,     drops_stuck, drops_dead,
            drops_ttl,   late_replies};
  }
};

/// Query-plane configuration carried inside PsimConfig.
struct QueryPlaneConfig {
  bool enabled = false;
  WorkloadSpec spec;
  DiknnParams diknn;
  uint32_t sink = 0;       ///< Sink node id (queries enter/leave here).
  SimTime warmup = 0.0;    ///< Arrivals start here.
  SimTime horizon = 0.0;   ///< Arrivals stop here; 0 = run duration.
};

/// World-level query-plane state. Everything below the `sink-owned`
/// marker is touched only by the shard owning the sink node at that
/// window (ownership moves only across sweep barriers); `roles` entries
/// are touched only by the owner of the indexed node.
struct QueryPlaneState {
  QueryPlaneConfig config;
  double step = 0.0;             ///< Q-node hop arc-length step.
  double itinerary_width = 0.0;
  uint32_t collection_windows = 1;  ///< Per-Q-node delay, in windows.
  float max_radius = 0.0f;       ///< For pre-warming itinerary scratch.
  std::vector<PsimQuery> queries;  ///< The arrival schedule, by issue_t.
  /// Per-node count of live query roles (home duties + the sink); a
  /// migrating node with a nonzero count carries query state with it.
  std::vector<uint32_t> roles;

  // --- Sink-owned from here on. ---
  size_t next_arrival = 0;  ///< First query not yet admitted.
  /// Queries launched on the network, as the sink launched them
  /// (SinkQuery::id indexes `queries`), awaiting a reply or the timeout.
  std::vector<SinkQuery> active;
  std::vector<KnnCandidate> answer;  ///< A reply's candidates.
  /// The sink shared with the serial engine (engaged when the plane is).
  std::optional<QuerySink> sink;
};

/// Builds the arrival schedule and the sink, and pre-sizes every
/// sink-side container (single-threaded, before the shards are
/// constructed). The schedule is QueryDriver's stream for (seed, spec),
/// independent of the shard count.
void BuildQueryPlane(QueryPlaneState* qp, const Rect& field,
                     int node_count, double radio_range, double max_speed,
                     SimTime run_duration, uint64_t seed);

}  // namespace diknn

#endif  // DIKNN_PSIM_QUERY_PLANE_H_
