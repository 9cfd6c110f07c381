// Node mobility models.
//
// Positions are *kinematic*: a model stores the current movement leg in
// closed form and answers PositionAt(t) for any non-decreasing sequence of
// query times, lazily advancing to new legs. No per-tick movement events
// are ever scheduled, so position lookups are exact and O(1) amortized.
// A model is a plain function of time: reading a position changes no
// other state. The channel's spatial grid re-buckets nodes only at its
// periodic refresh and bounds the drift in between by MaxSpeed(); only a
// pin (Node::PinPosition), which breaks that bound, re-buckets at once.

#ifndef DIKNN_NET_MOBILITY_H_
#define DIKNN_NET_MOBILITY_H_

#include <memory>

#include "core/geometry.h"
#include "core/rng.h"
#include "sim/event_queue.h"

namespace diknn {

/// Interface for node motion. Implementations must tolerate repeated
/// queries at the same time and queries at monotonically increasing times;
/// querying into the past after advancing is undefined (the simulator's
/// clock is monotone, so this never happens in practice).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Node position at simulation time `t`.
  virtual Point PositionAt(SimTime t) = 0;

  /// Instantaneous scalar speed (m/s) at time `t`.
  virtual double SpeedAt(SimTime t) = 0;

  /// Upper bound on the node's speed over its whole lifetime (m/s). Used
  /// by the channel's spatial grid to bound how far a node can drift from
  /// its bucketed position between refreshes.
  virtual double MaxSpeed() const = 0;
};

/// A node that never moves.
class StaticMobility : public MobilityModel {
 public:
  explicit StaticMobility(Point position) : position_(position) {}

  Point PositionAt(SimTime) override { return position_; }
  double SpeedAt(SimTime) override { return 0.0; }
  double MaxSpeed() const override { return 0.0; }

 private:
  Point position_;
};

/// Random waypoint (RWP) model per the paper's Section 5.1: "each sensor
/// node selects an arbitrary destination and moves to the destination at a
/// random speed ranging from 0 to mu_max. Upon arrival, the node selects a
/// new destination and walks again." No pause time.
///
/// A strictly-zero speed would freeze a node on its first leg forever (the
/// classic RWP degeneracy); speeds are drawn from [kMinSpeed, mu_max] with
/// kMinSpeed = 0.1 m/s, which matches common ns-2 practice.
class RandomWaypointMobility : public MobilityModel {
 public:
  static constexpr double kMinSpeed = 0.1;

  /// `field` bounds the waypoints; `max_speed` is the paper's mu_max.
  RandomWaypointMobility(Point start, Rect field, double max_speed, Rng rng);

  Point PositionAt(SimTime t) override;
  double SpeedAt(SimTime t) override;
  double MaxSpeed() const override {
    return max_speed_ < kMinSpeed ? 0.0 : max_speed_;
  }

 private:
  // Advances leg state so that `t` falls inside the current leg.
  void AdvanceTo(SimTime t);

  Rect field_;
  double max_speed_;
  Rng rng_;

  // Current leg: from `leg_start_pos_` at `leg_start_time_` toward
  // `leg_dest_` at `leg_speed_`, arriving at `leg_end_time_`.
  Point leg_start_pos_;
  Point leg_dest_;
  SimTime leg_start_time_ = 0.0;
  SimTime leg_end_time_ = 0.0;
  double leg_speed_ = 0.0;
};

/// Reference Point Group Mobility (RPGM, Hong et al., MSWiM 1999): a
/// shared group reference point travels by random waypoint, and each
/// member wanders in a small disk around it. Produces exactly the moving,
/// spatially irregular herds of the paper's Fig. 7 motivation.
class GroupMobility : public MobilityModel {
 public:
  /// The shared reference trajectory of one group. Create one per group
  /// and hand it to each member.
  using Reference = std::shared_ptr<RandomWaypointMobility>;

  /// `reference`: the group's trajectory. `start_offset`: the member's
  /// initial displacement from the reference point. `group_radius`: how
  /// far a member may roam from the reference. `member_speed`: the local
  /// wandering speed. Positions are clamped into `field`.
  GroupMobility(Reference reference, Point start_offset,
                double group_radius, double member_speed, Rect field,
                Rng rng);

  Point PositionAt(SimTime t) override;
  double SpeedAt(SimTime t) override;
  double MaxSpeed() const override {
    return reference_->MaxSpeed() + local_offset_.MaxSpeed();
  }

 private:
  Reference reference_;
  Rect field_;
  // The member's offset from the reference point evolves by its own
  // random waypoint walk inside a group_radius box around the origin.
  RandomWaypointMobility local_offset_;
};

}  // namespace diknn

#endif  // DIKNN_NET_MOBILITY_H_
