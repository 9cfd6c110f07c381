#include "net/mobility.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace diknn {

RandomWaypointMobility::RandomWaypointMobility(Point start, Rect field,
                                               double max_speed, Rng rng)
    : field_(field),
      max_speed_(max_speed),
      rng_(rng),
      leg_start_pos_(start),
      leg_dest_(start) {
  assert(max_speed_ >= 0.0);
  // Degenerate mobility (mu_max ~ 0) collapses to a static node.
  if (max_speed_ < kMinSpeed) {
    leg_end_time_ = std::numeric_limits<SimTime>::infinity();
    leg_speed_ = 0.0;
    return;
  }
  leg_end_time_ = 0.0;  // Forces a fresh leg on the first query.
}

void RandomWaypointMobility::AdvanceTo(SimTime t) {
  while (t >= leg_end_time_) {
    // Arrived: start a new leg from the previous destination.
    leg_start_pos_ = leg_dest_;
    leg_start_time_ = leg_end_time_;
    leg_dest_ = rng_.PointInRect(field_);
    leg_speed_ = rng_.Uniform(kMinSpeed, max_speed_);
    const double dist = Distance(leg_start_pos_, leg_dest_);
    const double duration = dist / leg_speed_;
    // Guard against a zero-length leg looping forever.
    leg_end_time_ = leg_start_time_ + std::max(duration, 1e-9);
  }
}

Point RandomWaypointMobility::PositionAt(SimTime t) {
  if (t >= leg_end_time_) AdvanceTo(t);
  if (t <= leg_start_time_) return leg_start_pos_;
  const double frac =
      (t - leg_start_time_) / (leg_end_time_ - leg_start_time_);
  return Lerp(leg_start_pos_, leg_dest_, std::min(frac, 1.0));
}

double RandomWaypointMobility::SpeedAt(SimTime t) {
  if (t >= leg_end_time_) AdvanceTo(t);
  return leg_speed_;
}

GroupMobility::GroupMobility(Reference reference, Point start_offset,
                             double group_radius, double member_speed,
                             Rect field, Rng rng)
    : reference_(std::move(reference)),
      field_(field),
      local_offset_(start_offset,
                    Rect{{-group_radius, -group_radius},
                         {group_radius, group_radius}},
                    member_speed, rng) {}

Point GroupMobility::PositionAt(SimTime t) {
  const Point ref = reference_->PositionAt(t);
  const Point offset = local_offset_.PositionAt(t);
  return field_.Clamp(ref + offset);
}

double GroupMobility::SpeedAt(SimTime t) {
  // Upper bound: the reference's speed plus the local wandering speed.
  return reference_->SpeedAt(t) + local_offset_.SpeedAt(t);
}

}  // namespace diknn
