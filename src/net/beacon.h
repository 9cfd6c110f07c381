// Periodic location beaconing (Section 3.1): every node broadcasts its id
// and position; receivers maintain neighbor tables from heard beacons.
// Beacon phases are jittered per node so the network does not
// synchronize its transmissions.
//
// Scheduling: instead of N independent self-rescheduling periodic events
// (one per node, each a heap entry with its own shared-state closure),
// the service keeps one phase-sorted sweep over the fleet and a single
// scheduler entry — the next beacon due. Each firing sends every beacon
// that shares that exact timestamp, advances those entries by one
// interval, and schedules the next due time. Per-node transmit times and
// their relative order are exactly those of the per-node-periodic scheme
// (same RNG draws, same `t + interval` accumulation), so runs are
// bit-identical; the scheduler just carries one resident event instead
// of N.

#ifndef DIKNN_NET_BEACON_H_
#define DIKNN_NET_BEACON_H_

#include <cstdint>
#include <vector>

#include "net/node.h"
#include "sim/simulator.h"

namespace diknn {

/// Beacon frame body.
struct BeaconMessage : Message {
  NodeId id = kInvalidNodeId;
  Point position;
};

/// Over-the-air beacon body size: id + position + 2 bytes. The 2 bytes
/// once carried the sender's speed, which no receiver reads any more;
/// they stay so that beacon airtime, and with it every simulated bit,
/// is unchanged.
inline constexpr size_t kBeaconBodyBytes =
    kNodeIdBytes + kPositionBytes + 2;

/// Installs periodic beaconing on a set of nodes.
class BeaconService {
 public:
  /// `interval`: paper default 0.5 s. Phases are drawn uniformly in
  /// [0, interval) from `rng`.
  BeaconService(Simulator* sim, std::vector<Node*> nodes, SimTime interval,
                Rng rng);

  /// Starts beaconing (registers handlers and schedules the first round).
  void Start();

 private:
  /// One fleet entry in the phase-sorted sweep. `next_time` advances by
  /// `interval_` per round with the same floating-point accumulation a
  /// self-rescheduling periodic event would produce.
  struct SweepEntry {
    SimTime next_time;
    uint32_t node_index;
  };

  void SendBeacon(Node* node);
  // Sends every beacon due at the cursor's timestamp, then re-arms.
  void FireSweep();
  // Schedules the single pending event at the cursor entry's due time.
  void ScheduleSweep();

  Simulator* sim_;
  std::vector<Node*> nodes_;
  SimTime interval_;
  Rng rng_;

  std::vector<SweepEntry> schedule_;  // Sorted by (phase, node order).
  size_t cursor_ = 0;
};

}  // namespace diknn

#endif  // DIKNN_NET_BEACON_H_
