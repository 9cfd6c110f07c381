// One shard of the parallel substrate simulation: a rectangular tile of
// the field, its nodes, its own timer-wheel Simulator, and the per-window
// exchange (boundary frames, node migrations, unicast query frames) with
// the adjacent shards.
//
// The shard simulates the beacon substrate (the traffic that dominates
// large fields): every node runs the 802.15.4 unslotted CSMA-CA dance —
// random backoff, carrier sense, broadcast — through a PHY model whose
// visibility is quantized to the conservative lookahead window L:
//
//   * a frame transmitted during window k becomes *visible* (to carrier
//     sense and to collision checks) from window k+1 on;
//   * its receptions are decided at the start of window k+2, when every
//     transmission that could overlap it (windows k-1..k+1; frame
//     duration <= L) is known on all shards.
//
// On top of the substrate, the shard runs the query plane
// (psim/query_plane.h): GPSR greedy forwarding and DIKNN itinerary
// traversal as window-stamped unicast frames, applied at their
// destination's owner in global (t, sender, seq) order.
//
// The quantization applies uniformly — to frames from the local tile
// and to frames mailed across a boundary alike — which is what makes
// every traffic counter an exact function of (seed, config), independent
// of the shard count: psim with --shards 8 counts the same frames,
// collisions, losses, query hops and SLO outcomes as psim with
// --shards 1 (asserted by psim_determinism_test). Randomness follows the
// same rule: every draw that affects traffic comes from a per-node
// stream forked from (seed, node id) or a stateless per-frame hash; the
// per-shard stream forked from (seed, shard id) feeds only the ownership
// audit probes.
//
// Thread safety is by phase discipline, not by locking (the SPSC
// mailboxes are the only concurrently-touched state): within a window,
// all shards pass a barrier, re-bucket/migrate (sweep windows only),
// pass a second barrier, drain their inboxes, then process the window.
// A node is touched exclusively by its owner; ownership changes hands
// only across the sweep barriers. See docs/ENGINE.md.

#ifndef DIKNN_PSIM_SHARD_H_
#define DIKNN_PSIM_SHARD_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/alloc_probe.h"
#include "core/rng.h"
#include "knn/itinerary.h"
#include "obs/timeseries.h"
#include "net/mac.h"
#include "net/mobility.h"
#include "net/neighbor_table.h"
#include "psim/mailbox.h"
#include "psim/partition.h"
#include "psim/query_plane.h"
#include "sim/simulator.h"

namespace diknn {

/// Parallel-substrate run configuration. Field/radio/MAC defaults match
/// NetworkConfig (the paper's Section 5.1 table).
struct PsimConfig {
  int node_count = 2000;
  Rect field = Rect::Field(115.0, 115.0);
  double radio_range_m = 20.0;
  double bit_rate_bps = 250e3;
  double loss_rate = 0.0;
  SimTime beacon_interval = 0.5;
  SimTime neighbor_timeout = 1.5;
  double max_speed = 10.0;  ///< mu_max; 0 = static nodes.
  double grid_refresh_interval_s = 0.25;
  MacParams mac;
  int shards = 1;           ///< Requested; clamped by the partition.
  SimTime duration = 5.0;
  uint64_t seed = 1;
  /// Boundary-frame ring capacity per (pair, direction); 0 = sized from
  /// node_count. Migration rings are always sized from node_count.
  size_t frame_mailbox_capacity = 0;
  /// Query plane (disabled by default: substrate only).
  QueryPlaneConfig query;
  /// Node-fault schedule: (time s, node id) pairs. A node dies at the
  /// first sweep window at or after its time — sweeps are global sync
  /// points, so the fault lands identically at every shard count.
  std::vector<std::pair<double, uint32_t>> node_kills;
  /// Flight-recorder cadence/capacity. Sampling happens in the window
  /// barrier's completion step — a global sync point — so deterministic
  /// series read partition-invariant sums race-free and bit-identically
  /// at any shard count (per-shard diagnostics follow busy_s and stay
  /// out of the invariant comparison). Disabled (interval 0) by default.
  TimeSeriesOptions ts;
};

/// A transmission on the air, as exchanged between shards. `origin` is
/// the sender's true position at transmit time; receivers and interferers
/// are judged against it, so a mailed copy carries everything a neighbor
/// shard needs — sender state is never touched across a boundary.
struct PsimFrame {
  Point origin;
  SimTime t = 0.0;       ///< Transmit start.
  SimTime end = 0.0;     ///< Transmit end (t + air time).
  float speed = 0.0f;    ///< Sender speed advertised in the beacon.
  uint32_t sender = 0;
  uint32_t seq = 0;      ///< Sender-local sequence number.
  int32_t cell = -1;     ///< Grid cell of `origin` at transmit time.
  uint32_t window = 0;   ///< Lookahead window the frame was sent in.
};

/// Per-node state. Owned (read and written) exclusively by the shard
/// that owns the node's bucket cell; ownership migrates with the node.
struct PsimNode {
  enum class Phase : uint8_t { kIdle, kBackoff };

  Rng rng{0};            ///< CSMA backoff draws; forked from (seed, id).
  std::unique_ptr<MobilityModel> mobility;
  NeighborTable neighbors{1.5};
  int32_t cell = -1;     ///< Bucket cell (refreshed at sweep windows).
  uint32_t seq = 0;
  SimTime next_beacon = 0.0;
  SimTime event_time = 0.0;  ///< Absolute time of the pending event.
  EventId event = 0;  ///< 0 = no pending event (the null handle).
  Phase phase = Phase::kIdle;
  uint8_t backoffs = 0;  ///< CSMA backoff rounds done for this frame.
  uint8_t be = 0;        ///< Current backoff exponent.
};

/// Per-shard counters. The traffic block is partition-invariant — equal
/// (summed across shards) for any shard count — while the exchange block
/// describes the partitioning itself.
struct PsimStats {
  // Partition-invariant traffic counters.
  uint64_t frames_sent = 0;
  uint64_t csma_attempts = 0;
  uint64_t csma_busy = 0;
  uint64_t csma_failures = 0;
  uint64_t receptions_attempted = 0;
  uint64_t receptions_delivered = 0;
  uint64_t receptions_collided = 0;
  uint64_t receptions_lost = 0;
  uint64_t candidates_scanned = 0;
  uint64_t neighbor_updates = 0;
  // Partition-dependent exchange counters.
  uint64_t boundary_frames = 0;   ///< Frames mailed to a neighbor shard.
  uint64_t foreign_frames = 0;    ///< Frames drained from neighbors.
  uint64_t migrations_out = 0;
  uint64_t migrations_in = 0;
  uint64_t sweeps = 0;
  uint64_t windows = 0;
  uint64_t audit_probes = 0;      ///< Shard-RNG ownership spot checks.
  uint64_t audit_mismatches = 0;  ///< Must stay 0.
  /// Query-plane counters (invariant block + exchange block inside).
  QueryPlaneStats qp;
  // Steady-state allocation tallies (second half of the run).
  uint64_t steady_allocs = 0;
  uint64_t steady_alloc_bytes = 0;
  /// Wall-clock seconds this shard spent working (barrier waits
  /// excluded); feeds the bench's parallel-efficiency estimate.
  double busy_s = 0.0;
  /// Wall-clock seconds spent waiting at the two window barriers; the
  /// bench reports barrier_wait / (busy + barrier_wait) as the per-shard
  /// imbalance share. Like busy_s, never published to obs (wall-clock).
  double barrier_wait_s = 0.0;
  /// Mailbox high-water marks: the deepest any inbox of this shard got,
  /// sampled at drain time. Racy against the producer's current process
  /// phase by design — load-imbalance observability for the bench, never
  /// part of the obs snapshot or the invariant comparison.
  uint64_t frames_mailbox_hwm = 0;
  uint64_t queries_mailbox_hwm = 0;
  uint64_t migrations_mailbox_hwm = 0;

  PsimStats& operator+=(const PsimStats& o);

  /// The partition-invariant subset, comparable across shard counts.
  struct Invariants {
    uint64_t frames_sent, csma_attempts, csma_busy, csma_failures;
    uint64_t receptions_attempted, receptions_delivered;
    uint64_t receptions_collided, receptions_lost;
    uint64_t candidates_scanned, neighbor_updates;
    QueryPlaneStats::Invariants qp;
    bool operator==(const Invariants&) const = default;
  };
  Invariants InvariantCounters() const {
    return {frames_sent,          csma_attempts,
            csma_busy,            csma_failures,
            receptions_attempted, receptions_delivered,
            receptions_collided,  receptions_lost,
            candidates_scanned,   neighbor_updates,
            qp.InvariantCounters()};
  }
};

/// Shared world state, built single-threaded by the engine. During the
/// run, `nodes[i]` and each cell list are touched only by the owning
/// shard (phase discipline above).
struct PsimWorld {
  PsimConfig config;
  FieldPartition partition;
  double frame_air_time = 0.0;
  std::vector<PsimNode> nodes;
  /// Node indices bucketed per grid cell.
  std::vector<std::vector<uint32_t>> cell_nodes;
  /// 1 while the node is up. Written only at sweep windows (by the
  /// owner), read freely in process phases — barrier-separated.
  std::vector<uint8_t> alive;
  /// First sweep window at which the node dies; empty = no faults.
  std::vector<uint64_t> kill_window;
  /// Query-plane state (schedule, per-query state, sink-side serving).
  QueryPlaneState query;

  PsimWorld(const PsimConfig& cfg, const PsimNetParams& net)
      : config(cfg), partition(net, cfg.shards) {}

  /// Boundary-frame ring capacity: a frame stays undrained for at most
  /// two windows, and frames per window are bounded by the border
  /// population, so node_count is a comfortable worst case.
  size_t FrameMailboxCapacity() const {
    if (config.frame_mailbox_capacity > 0) {
      return config.frame_mailbox_capacity;
    }
    return std::max<size_t>(4096,
                            static_cast<size_t>(config.node_count));
  }
  /// Migration ring capacity: at most every node migrates in one sweep.
  size_t MigrationMailboxCapacity() const {
    return std::max<size_t>(1024,
                            static_cast<size_t>(config.node_count));
  }
  /// Query-frame ring capacity: concurrent query frames are bounded by
  /// the admission bound times the sector fan-out (plus retries), and a
  /// frame stays undrained for at most two windows.
  size_t QueryMailboxCapacity() const {
    if (!config.query.enabled) return 16;
    const int sectors = std::max(1, config.query.diknn.num_sectors);
    const int inflight = config.query.spec.max_inflight;
    return std::max<size_t>(
        4096, inflight > 0 ? static_cast<size_t>(8 * sectors * inflight)
                           : 4096);
  }
};

class PsimShard : private QuerySink::Engine {
 public:
  /// Everything one shard consumes from one adjacent producer: the three
  /// SPSC rings of the per-window exchange. Created by the engine wiring
  /// pass, one per (producer, consumer) edge of the tile adjacency.
  struct NeighborInbox {
    int from;  ///< Producer shard id.
    SpscMailbox<PsimFrame> frames;
    SpscMailbox<uint32_t> migrations;
    SpscMailbox<PsimQueryFrame> queries;

    NeighborInbox(int from_shard, size_t frame_cap, size_t migration_cap,
                  size_t query_cap)
        : from(from_shard),
          frames(frame_cap),
          migrations(migration_cap),
          queries(query_cap) {}
  };

  PsimShard(PsimWorld* world, int id);

  PsimShard(const PsimShard&) = delete;
  PsimShard& operator=(const PsimShard&) = delete;

  int id() const { return id_; }

  /// Engine wiring (single-threaded, before the run): creates the inbox
  /// this shard will consume from adjacent shard `from`. Call in
  /// ascending `from` order — drain order is inbox-creation order.
  NeighborInbox* CreateInbox(int from);
  /// Inbox previously created for producer `from` (nullptr if none).
  NeighborInbox* InboxFrom(int from);
  /// Engine wiring: registers neighbor `to`'s inbox for this producer,
  /// so cross-boundary pushes can find their ring. Ascending `to` order.
  void AddOutbox(int to, NeighborInbox* inbox);

  /// Takes ownership of node `i` and schedules its first beacon. Engine
  /// setup only (single-threaded).
  void AdoptNode(uint32_t i);

  // --- Window phases, driven by the engine's worker loop. ---------------

  /// Phase A (between the two barriers): on sweep windows, apply due
  /// node faults, re-bucket every owned node at the window boundary,
  /// mail nodes whose bucket moved to another tile, expire neighbor
  /// tables, and run an ownership audit probe off the shard RNG.
  void SweepIfDue(uint64_t k);

  /// Phase B.1: adopt migrated-in nodes, chain drained boundary frames
  /// into the window slots, and file drained query frames by their
  /// application window.
  void DrainMailboxes(uint64_t k);

  /// Phase B.2: decide receptions for the frames of window k-2, apply
  /// this window's query frames in (t, sender, seq) order (and run sink
  /// duties when this shard owns the sink), then run this shard's events
  /// scheduled inside [kL, (k+1)L).
  void ProcessWindow(uint64_t k);

  /// After the final window (and a final barrier): consume frames mailed
  /// during the last windows so the boundary/foreign tallies balance.
  void DrainRemaining();

  /// Resets the allocation counters at the run midpoint so the final
  /// tally covers only the steady-state half.
  void BeginSteadyState() { allocs_.Reset(); }

  /// Folds the allocation tallies into stats(); call once, after the
  /// last window.
  void FinalizeStats();

  const PsimStats& stats() const { return stats_; }
  PsimStats& stats() { return stats_; }
  /// Live wall-clock scratch for the flight recorder's diagnostic
  /// series: the worker publishes its running busy / barrier-wait totals
  /// here just before arriving at each window's first barrier, and the
  /// barrier's completion step reads them (the barrier orders the two).
  double live_busy_s = 0.0;
  double live_wait_s = 0.0;
  AllocCounters* allocs() { return &allocs_; }
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  size_t owned_count() const { return owned_.size(); }

  /// True when every owned node's bucket cell maps back to this shard
  /// and its pending event is live (dead nodes keep their bucket but
  /// hold no event). Test hook (call between runs or after Run; not
  /// thread-safe against the worker loop).
  bool OwnershipInvariantHolds() const;

  /// Deterministic per-shard seed; the resulting stream feeds only the
  /// ownership audit probes, never traffic decisions.
  static uint64_t ShardSeed(uint64_t run_seed, int shard_id);
  /// Deterministic per-node seed (`lane` separates the mobility stream
  /// from the CSMA stream).
  static uint64_t NodeSeed(uint64_t run_seed, uint32_t node, uint32_t lane);

 private:
  friend class PsimEngine;

  // A window slot holds every known frame of one lookahead window
  // (local + drained foreign), chained per grid cell for the geometric
  // scans. Four slots cover the live range k-3..k. The head index is a
  // dense per-cell array (cells are small dense ints), so chaining and
  // clearing never allocate.
  struct WindowSlot {
    std::vector<PsimFrame> frames;
    std::vector<int32_t> next;       ///< Chain links, parallel to frames.
    std::vector<int32_t> cell_head;  ///< cell -> first frame index, -1 = none.

    void Clear() {
      frames.clear();
      next.clear();
      std::fill(cell_head.begin(), cell_head.end(), -1);
    }
  };

  WindowSlot& Slot(uint64_t window) { return slots_[window & 3]; }

  void AppendFrame(const PsimFrame& f);
  void OnNodeEvent(uint32_t i);
  void StartCsma(uint32_t i, SimTime now);
  void ScheduleBackoff(uint32_t i, SimTime now);
  void CsmaAttempt(uint32_t i, SimTime now);
  void Transmit(uint32_t i, SimTime now, const Point& pos);
  void ScheduleNextBeacon(uint32_t i);
  void ScheduleNode(uint32_t i, SimTime t);
  bool SenseBusy(const Point& pos, SimTime now) const;
  void DeliverWindow(uint64_t k);
  void DeliverFrame(const PsimFrame& f, SimTime now);
  bool LossDraw(const PsimFrame& f, uint32_t receiver) const;
  NeighborInbox* OutboxFor(int shard);
  /// OutboxFor that aborts instead of returning null: a missing link
  /// means the partition's adjacency guarantee was violated.
  NeighborInbox* RequireOutbox(int shard);

  // --- Query plane (psim/query_plane.cc). -------------------------------
  void ProcessQueryWindow(uint64_t k);
  void ApplyQueryFrame(const PsimQueryFrame& f, uint64_t k, SimTime now);
  void HandleRequest(const PsimQueryFrame& f, SimTime now);
  void HandleHomeArrival(uint32_t query, uint32_t v, SimTime now);
  void HandleItinerary(const PsimQueryFrame& f, SimTime now);
  void HandleSectorResult(const PsimQueryFrame& f, SimTime now);
  void HandleReply(const PsimQueryFrame& f, SimTime now);
  void SendReply(uint32_t query, uint32_t home, SimTime now);
  /// Picks the next hop toward (`target_node` at ~`target_point`) from
  /// node `v` and sends `f` (or drops at a dead end). `f->dest` is set.
  void SendToward(PsimQueryFrame* f, uint32_t v, uint32_t target_node,
                  const Point& target_point, SimTime now);
  /// Stamps sender/seq/t/window and routes (local slot or neighbor
  /// mailbox). `delay_windows` >= 1 keeps cross-shard causality.
  void SendQueryFrame(PsimQueryFrame* f, uint32_t from_node,
                      uint32_t delay_windows);
  void RouteQueryFrame(const PsimQueryFrame& f);
  bool QueryLossDraw(const PsimQueryFrame& f) const;
  /// Collects `v` and its fresh neighbors into a candidate set.
  void CollectAt(uint32_t v, const PsimQuery& query, SimTime now,
                 uint16_t* ncand,
                 std::array<QueryCandidate, kMaxQueryCandidates>* cand,
                 uint32_t* found);
  /// True + the advanced progress/hop when the sector itinerary
  /// continues from `v`; false when the sector is exhausted.
  bool NextItineraryHop(const PsimQuery& query, int sector, uint32_t v,
                        const Point& pos, uint32_t prev, SimTime now,
                        float* progress, NeighborEntry* next);
  // Sink duties (only the shard owning the sink node runs these): this
  // engine's side of the shared QuerySink.
  void ProcessSink(uint64_t k, SimTime now);
  Point SinkPosition(NodeId sink, SimTime now) override;
  /// Sends a direct query's request frame toward its home node.
  void Launch(const SinkQuery& query) override;
  /// A launched query's reply landed, or (`reply` null) its timeout
  /// expired: hands the answer to the sink. False when the query is no
  /// longer in flight.
  bool ResolveLeader(uint32_t query, const PsimQueryFrame* reply,
                     SimTime now);
  Point SinkTargetPoint() const;

  PsimWorld* world_;
  int id_;

  Simulator sim_;
  Rng shard_rng_;
  AllocCounters allocs_;
  PsimStats stats_;
  uint64_t current_window_ = 0;

  std::vector<uint32_t> owned_;  ///< Node indices owned by this shard.
  std::array<WindowSlot, 4> slots_;
  /// Query frames filed by application window (window % kQuerySlotCount).
  std::array<std::vector<PsimQueryFrame>, kQuerySlotCount> qslots_;

  // Exchange links (created by the engine wiring pass).
  std::vector<std::unique_ptr<NeighborInbox>> inboxes_;
  std::vector<std::pair<int, NeighborInbox*>> outboxes_;

  // Reused scratch (allocation-free once at high-water capacity).
  std::vector<uint32_t> delivery_order_;     ///< Frame index permutation.
  std::vector<const PsimFrame*> interferers_;
  std::vector<uint32_t> receivers_;
  std::vector<uint32_t> migrated_out_;
  std::vector<uint32_t> qorder_;             ///< Query frame permutation.
  Itinerary itinerary_scratch_;
};

}  // namespace diknn

#endif  // DIKNN_PSIM_SHARD_H_
