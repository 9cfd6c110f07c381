#include "net/mobility.h"

#include <gtest/gtest.h>

namespace diknn {
namespace {

const Rect kField = Rect::Field(100, 100);

TEST(StaticMobilityTest, NeverMoves) {
  StaticMobility m({10, 20});
  EXPECT_EQ(m.PositionAt(0.0), Point(10, 20));
  EXPECT_EQ(m.PositionAt(1000.0), Point(10, 20));
  EXPECT_DOUBLE_EQ(m.SpeedAt(5.0), 0.0);
}

TEST(RandomWaypointTest, StartsAtGivenPosition) {
  RandomWaypointMobility m({30, 40}, kField, 10.0, Rng(1));
  EXPECT_EQ(m.PositionAt(0.0), Point(30, 40));
}

TEST(RandomWaypointTest, StaysInsideField) {
  RandomWaypointMobility m({50, 50}, kField, 20.0, Rng(2));
  for (double t = 0; t < 500; t += 0.25) {
    const Point p = m.PositionAt(t);
    EXPECT_TRUE(kField.Contains(p)) << "t=" << t << " p=" << p;
  }
}

TEST(RandomWaypointTest, SpeedWithinBounds) {
  RandomWaypointMobility m({50, 50}, kField, 10.0, Rng(3));
  for (double t = 0; t < 200; t += 1.0) {
    const double s = m.SpeedAt(t);
    EXPECT_GE(s, RandomWaypointMobility::kMinSpeed);
    EXPECT_LE(s, 10.0);
  }
}

TEST(RandomWaypointTest, DisplacementConsistentWithSpeed) {
  RandomWaypointMobility m({50, 50}, kField, 10.0, Rng(4));
  double t = 0;
  Point prev = m.PositionAt(t);
  const double dt = 0.01;
  for (int i = 0; i < 10000; ++i) {
    t += dt;
    const Point cur = m.PositionAt(t);
    // A node can never move faster than the max speed.
    EXPECT_LE(Distance(prev, cur), 10.0 * dt + 1e-9);
    prev = cur;
  }
}

TEST(RandomWaypointTest, ActuallyMoves) {
  RandomWaypointMobility m({50, 50}, kField, 10.0, Rng(5));
  EXPECT_GT(Distance(m.PositionAt(0.0), m.PositionAt(30.0)), 1.0);
}

TEST(RandomWaypointTest, ZeroMaxSpeedDegeneratesToStatic) {
  RandomWaypointMobility m({25, 75}, kField, 0.0, Rng(6));
  EXPECT_EQ(m.PositionAt(100.0), Point(25, 75));
  EXPECT_DOUBLE_EQ(m.SpeedAt(100.0), 0.0);
}

TEST(RandomWaypointTest, RepeatedQueriesAtSameTimeAgree) {
  RandomWaypointMobility m({50, 50}, kField, 10.0, Rng(7));
  m.PositionAt(12.0);
  const Point a = m.PositionAt(12.0);
  const Point b = m.PositionAt(12.0);
  EXPECT_EQ(a, b);
}

TEST(RandomWaypointTest, DeterministicAcrossInstances) {
  RandomWaypointMobility a({50, 50}, kField, 10.0, Rng(8));
  RandomWaypointMobility b({50, 50}, kField, 10.0, Rng(8));
  for (double t = 0; t < 60; t += 3.1) {
    EXPECT_EQ(a.PositionAt(t), b.PositionAt(t));
  }
}

}  // namespace
}  // namespace diknn
