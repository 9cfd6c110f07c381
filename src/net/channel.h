// Shared broadcast wireless channel with per-receiver collision detection.
//
// Model: a frame transmitted at time t occupies the air for
// duration = bytes * 8 / bit_rate, and is heard by every live node within
// `radio_range_m` of the sender. A receiver with two temporally overlapping
// audible frames corrupts both (no capture effect). Independent random
// loss models fading and interference beyond collisions. These are exactly
// the effects the paper's evaluation leans on: contention between
// concurrent itinerary traversals, KPT's collision-driven energy spike at
// large k, and accuracy degradation from lost packets.
//
// Scalability: delivery and carrier sensing are served from a uniform
// spatial hash grid rather than a full scan over all attached nodes, so
// per-frame cost is proportional to the local neighborhood instead of the
// network size. Cell size is `radio_range_m` plus a drift margin
// (max node speed x refresh interval), which makes a 3x3 cell
// neighborhood a conservative superset of every node within radio range
// even though bucketed positions lag true (kinematic) positions by up to
// one refresh interval.
//
// Receiver contract: every candidate a source yields (the grid's 3x3
// cells, or all attached nodes for the brute-force scan) is counted in
// `candidates_scanned`. A grid candidate is first judged from the
// position it was bucketed at (net/drift_band.h): one farther than
// r + D, D being the farthest any node can have drifted since the last
// full refresh, is out without its Node being loaded; one nearer than
// r - D is in; only the ones in between take an exact Position() range
// check. The brute-force scan range-checks every node exactly. The
// audible receivers that survive are sorted by ascending node id before
// any per-receiver work (collision bookkeeping, the loss RNG draw, the
// delivery batch). So grid-indexed runs are bit-identical to the
// brute-force scan (`use_spatial_grid = false`), and only the ~1/3 of
// candidates that are audible pay for the sort.

#ifndef DIKNN_NET_CHANNEL_H_
#define DIKNN_NET_CHANNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/alloc_probe.h"
#include "core/geometry.h"
#include "core/rng.h"
#include "net/energy_model.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace diknn {

class Node;
class Tracer;

/// Physical-layer parameters.
struct ChannelParams {
  double radio_range_m = 20.0;  ///< Paper: r = 20 m.
  double bit_rate_bps = 250e3;  ///< Paper: 250 kbps LR-WPAN channel.
  double loss_rate = 0.0;       ///< Per-receiver independent drop prob.
  /// Serve delivery and carrier sensing from the spatial hash grid. The
  /// brute-force O(N) scan is kept for equivalence testing; both paths
  /// produce bit-identical outcomes for the same seed.
  bool use_spatial_grid = true;
  /// How often (simulated seconds) every node is re-bucketed into the
  /// grid. Larger values mean fewer refresh sweeps but a wider drift
  /// margin (and hence larger cells). The refresh is the only thing that
  /// moves a mobile node between cells; a pinned node re-buckets at once.
  double grid_refresh_interval_s = 0.25;
};

/// Channel traffic counters, exposed for tests and benchmarks.
struct ChannelStats {
  uint64_t frames_sent = 0;
  uint64_t receptions_attempted = 0;
  uint64_t receptions_delivered = 0;
  uint64_t receptions_collided = 0;
  uint64_t receptions_lost = 0;  ///< Random loss (non-collision).
  /// Receiver candidates examined across all transmissions (range checks
  /// performed). The grid's win over the brute-force scan shows up here.
  uint64_t candidates_scanned = 0;
  /// Summed on-air time of every transmitted frame (seconds). Divided by
  /// elapsed sim time this is the medium's offered-load share — the
  /// airtime-utilization series of the flight recorder.
  double airtime_s = 0.0;
};

/// The shared medium. One instance per Network; all nodes attach to it.
class Channel {
 public:
  Channel(Simulator* sim, ChannelParams params, Rng rng);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a node. Nodes must outlive the channel's pending events;
  /// the Network guarantees this by owning both.
  void Attach(Node* node);

  /// Starts transmitting `packet` from `sender` now. The MAC layer is
  /// responsible for carrier sensing before calling this. Transmission
  /// energy is charged to `sender` immediately; reception energy to each
  /// audible receiver when its reception completes. Both are attributed to
  /// `packet.category`.
  void Transmit(Node* sender, const Packet& packet);

  /// Carrier sense: true if any ongoing transmission is audible at `pos`.
  bool IsBusyAt(const Point& pos) const;

  /// Re-buckets `node` at `position` in the spatial grid at once. For
  /// pins (a freeze or a teleport), which break the speed bound the
  /// drift margin relies on; harmless no-op for unattached nodes or when
  /// the grid is disabled / not yet built.
  void RebucketNode(Node* node, const Point& position);

  /// Air time of a frame of `bytes` (including MAC header) at the
  /// configured bit rate.
  double FrameDuration(size_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / params_.bit_rate_bps;
  }

  const ChannelParams& params() const { return params_; }
  const ChannelStats& stats() const { return stats_; }

  /// Grid cell edge length (m); 0 until the grid is first built. Exposed
  /// for tests.
  double grid_cell_size() const { return cell_size_; }

  /// Tracer for frame-level attribution: the frame log (one FrameRecord
  /// per transmission) plus collisions, losses and fault hits on traced
  /// queries' frames. Not owned; pass nullptr to detach. The tracer
  /// records only — it cannot perturb delivery.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Fault-injection verdict for one frame, decided before it goes on the
  /// air. A dropped frame still costs transmit energy and occupies the air
  /// for carrier sensing — the sender *did* transmit — but no receiver
  /// hears it (modeling deep fades and jamming, and in particular forced
  /// MAC ACK loss). A duplicated frame is re-aired once, immediately after
  /// the original finishes, with the same uid (modeling a spurious
  /// retransmission). Both copies carry Packet::reaired, so a receiver MAC
  /// checks even a broadcast against its duplicate window; it ACKs a
  /// unicast copy again and suppresses the second protocol delivery,
  /// exactly the lost-ACK fork the protocols must survive.
  struct FrameFault {
    bool drop = false;
    bool duplicate = false;
  };

  /// Hook consulted at the start of every Transmit. Replayed duplicates
  /// requested by the hook are not themselves subject to it. The hook
  /// must outlive the channel's pending events (the FaultInjector owns it
  /// for the whole run). Pass nullptr to detach.
  using FaultHook = std::function<FrameFault(const Packet&, NodeId sender)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Frames currently parked in the in-flight pool (un-fired delivery or
  /// duplicate-replay events). Returns to zero when the air drains.
  size_t frames_in_flight() const { return frames_.live_count(); }

  /// In-flight frame pool traffic (slab growth vs. slot reuse).
  const MessagePoolStats& frame_pool_stats() const { return frames_.stats(); }

  /// Heap allocations attributed to the packet plane (channel, MAC,
  /// beacons). The MAC and beacon layers arm this scope around their
  /// event bodies; after warmup it must stop advancing — the steady
  /// state is allocation-free (docs/PACKET_PLANE.md), gated by
  /// bench_micro and scripts/check_all.sh.
  AllocCounters& net_allocs() { return net_allocs_; }
  const AllocCounters& net_allocs() const { return net_allocs_; }

 private:
  // One receiver's pending outcome of a frame; position i of the delivery
  // batch corresponds to flags[i] in the owning InFlightFrame.
  struct Delivery {
    Node* receiver = nullptr;
    bool randomly_lost = false;
  };

  // Everything the channel needs to finish one transmitted frame, parked
  // in a pooled slot so the delivery event captures only {this, handle}
  // (inline in SmallFn — no per-frame closure allocation) and the flag /
  // batch buffers are recycled across frames. `flags[i]` is set when a
  // later overlapping frame corrupts receiver i's reception.
  struct InFlightFrame {
    Packet packet;
    std::vector<unsigned char> flags;
    std::vector<Delivery> batch;

    void Reuse() {
      packet = Packet{};  // Drops the payload reference.
      flags.clear();
      batch.clear();
    }
  };
  using FrameHandle = FramePool<InFlightFrame>::Handle;

  // One in-progress reception at a receiver: frame `frame` ends at
  // `end_time`, and the receiver's corruption bit is that frame's
  // `flags[flag_index]`. An entry with end_time > now always refers to a
  // live pool slot (its delivery event has not fired yet).
  struct Reception {
    SimTime end_time = 0.0;
    FrameHandle frame = FramePool<InFlightFrame>::kNullHandle;
    uint32_t flag_index = 0;
  };

  // In-progress receptions of one receiver, one record each: the
  // collision loop and Compact read all three fields of every entry, so
  // they sit together rather than in parallel arrays.
  struct ReceptionLane {
    std::vector<Reception> receptions;

    // Drops entries whose reception already ended, preserving order.
    void Compact(SimTime now) {
      std::erase_if(receptions, [now](const Reception& r) {
        return r.end_time <= now;
      });
    }
  };

  // Frames currently in the air (carrier sensing), struct-of-arrays:
  // IsBusyAt scans `end_times` contiguously and reads the origin only for
  // non-expired frames.
  struct AirLane {
    std::vector<SimTime> end_times;
    std::vector<Point> origins;

    void Add(const Point& origin, SimTime end_time) {
      end_times.push_back(end_time);
      origins.push_back(origin);
    }
    void Compact(SimTime now) {
      size_t kept = 0;
      for (size_t i = 0; i < end_times.size(); ++i) {
        if (end_times[i] <= now) continue;
        end_times[kept] = end_times[i];
        origins[kept] = origins[i];
        ++kept;
      }
      end_times.resize(kept);
      origins.resize(kept);
    }
    bool AnyAudible(const Point& pos, SimTime now, double range2) const {
      for (size_t i = 0; i < end_times.size(); ++i) {
        if (end_times[i] > now &&
            SquaredDistance(origins[i], pos) <= range2) {
          return true;
        }
      }
      return false;
    }
  };

  // A node as the grid last bucketed it: the position is read for every
  // candidate, the Node only for those the drift band cannot rule out.
  struct BucketEntry {
    Point at;
    Node* node = nullptr;
  };

  // Cell coordinates of `p`, clamped into the grid's bounding box. The
  // box is fitted to node positions at rebuild time; clamping is
  // monotone and never increases distances, so two points within one
  // cell size of each other still land in adjacent (or equal) cells even
  // when one strays outside the box.
  struct CellCoord {
    int32_t cx = 0;
    int32_t cy = 0;
  };
  CellCoord CellCoordOf(const Point& p) const {
    int32_t cx = static_cast<int32_t>(
        std::floor((p.x - grid_min_x_) / cell_size_));
    int32_t cy = static_cast<int32_t>(
        std::floor((p.y - grid_min_y_) / cell_size_));
    cx = std::clamp(cx, 0, grid_nx_ - 1);
    cy = std::clamp(cy, 0, grid_ny_ - 1);
    return CellCoord{cx, cy};
  }
  int32_t CellIndexOf(const Point& p) const {
    const CellCoord c = CellCoordOf(p);
    return c.cy * grid_nx_ + c.cx;
  }

  // Drops expired frames from the brute-force air lane (anywhere in the
  // lane, not just the front, so one long frame cannot pin short ones).
  void PruneAir();

  // Fires the batched delivery of one pooled frame, then releases its
  // slot.
  void DeliverFrame(FrameHandle handle);

  // Re-airs a fault-duplicated frame parked in `handle`, then releases
  // its slot.
  void ReplayDuplicate(Node* sender, FrameHandle handle);

  // Runs the periodic housekeeping when due: (re)builds or refreshes the
  // node grid, sweeps expired air frames, and drains finished reception
  // lists. Called at the top of Transmit.
  void PeriodicSweep();

  // Moves `node` into the cell containing `position` (inserting it if it
  // is not yet bucketed) and records `position` as its bucketed one.
  void PlaceNode(Node* node, const Point& position);

  // Erases entries in `active_receptions_` whose receptions all ended.
  void SweepReceptions(SimTime now);

  Simulator* sim_;
  ChannelParams params_;
  Rng rng_;
  Tracer* tracer_ = nullptr;
  FaultHook fault_hook_;
  bool replaying_fault_ = false;  // Guards hook re-entry on duplicates.
  std::vector<Node*> nodes_;
  // In-flight frame slots; slots are released when the delivery (or
  // duplicate-replay) event fires, so live_count tracks the air.
  FramePool<InFlightFrame> frames_;
  // In-progress receptions, indexed by receiver id (node ids are dense).
  // Swept periodically, so memory stays bounded by the live population
  // even across churn-heavy runs.
  std::vector<ReceptionLane> active_receptions_;
  AirLane air_;  // Brute-force mode only.
  ChannelStats stats_;
  AllocCounters net_allocs_;

  // Spatial grid state: a flat row-major array of grid_nx_ x grid_ny_
  // cells fitted to the fleet's bounding box at rebuild time. Flat
  // indexing keeps the per-frame 3x3 probes at array-dereference cost
  // (no hashing on the hot path). Mutable: IsBusyAt is logically const.
  bool grid_dirty_ = true;        // Attach happened; rebuild on next sweep.
  double cell_size_ = 0.0;        // radio_range + drift margin.
  double speed_bound_ = 0.0;      // Fleet-wide MaxSpeed (m/s).
  SimTime last_refresh_ = 0.0;    // Last time every node was re-bucketed.
  SimTime next_sweep_ = 0.0;      // Next periodic refresh deadline.
  double grid_min_x_ = 0.0;
  double grid_min_y_ = 0.0;
  int32_t grid_nx_ = 0;
  int32_t grid_ny_ = 0;
  std::vector<std::vector<BucketEntry>> node_cells_;
  // Current cell index of each node, indexed by node id (dense; -1 =
  // unbucketed). The periodic refresh touches every node, so this
  // lookup must not hash.
  std::vector<int32_t> node_cell_of_;
  // Each bucketed node's index within its cell, beside node_cell_of_, so
  // a refresh that keeps a node's cell rewrites its position in one store.
  std::vector<uint32_t> node_entry_of_;
  mutable std::vector<AirLane> air_cells_;
  // Audible receivers of the frame being transmitted, sorted by id. The
  // id is carried beside the node so the sort compares contiguous ints.
  std::vector<std::pair<NodeId, Node*>> receivers_;
};

}  // namespace diknn

#endif  // DIKNN_NET_CHANNEL_H_
