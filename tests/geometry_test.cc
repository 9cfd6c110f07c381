#include "core/geometry.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace diknn {
namespace {

constexpr double kEps = 1e-9;

TEST(PointTest, Arithmetic) {
  Point a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, Point(4, -2));
  EXPECT_EQ(a - b, Point(-2, 6));
  EXPECT_EQ(a * 2.0, Point(2, 4));
  EXPECT_EQ(2.0 * a, Point(2, 4));
  EXPECT_EQ(b / 2.0, Point(1.5, -2));
}

TEST(PointTest, NormAndDistance) {
  EXPECT_DOUBLE_EQ(Point(3, 4).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(Point(3, 4).SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {4, 5}), 25.0);
}

TEST(PointTest, DotAndCross) {
  EXPECT_DOUBLE_EQ(Point(1, 2).Dot({3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(Point(1, 0).Cross({0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Point(0, 1).Cross({1, 0}), -1.0);
}

TEST(PointTest, NormalizedHandlesZero) {
  EXPECT_EQ(Point(0, 0).Normalized(), Point(0, 0));
  const Point n = Point(10, 0).Normalized();
  EXPECT_NEAR(n.x, 1.0, kEps);
  EXPECT_NEAR(n.y, 0.0, kEps);
}

TEST(PointTest, RotatedQuarterTurn) {
  const Point r = Point(1, 0).Rotated(kPi / 2);
  EXPECT_NEAR(r.x, 0.0, kEps);
  EXPECT_NEAR(r.y, 1.0, kEps);
}

TEST(AngleTest, NormalizeIntoRange) {
  EXPECT_NEAR(NormalizeAngle(0.0), 0.0, kEps);
  EXPECT_NEAR(NormalizeAngle(kTwoPi), 0.0, kEps);
  EXPECT_NEAR(NormalizeAngle(-kPi / 2), 1.5 * kPi, kEps);
  EXPECT_NEAR(NormalizeAngle(5 * kTwoPi + 1.0), 1.0, kEps);
  for (double a : {-100.0, -3.3, 0.0, 7.7, 1000.0}) {
    const double n = NormalizeAngle(a);
    EXPECT_GE(n, 0.0) << a;
    EXPECT_LT(n, kTwoPi) << a;
  }
}

TEST(AngleTest, DifferenceIsSignedShortest) {
  EXPECT_NEAR(AngleDifference(0.1, kTwoPi - 0.1), 0.2, kEps);
  EXPECT_NEAR(AngleDifference(kTwoPi - 0.1, 0.1), -0.2, kEps);
  EXPECT_NEAR(AngleDifference(kPi, 0.0), kPi, kEps);
}

TEST(AngleTest, AngleOfCardinalDirections) {
  EXPECT_NEAR(AngleOf({0, 0}, {1, 0}), 0.0, kEps);
  EXPECT_NEAR(AngleOf({0, 0}, {0, 1}), kPi / 2, kEps);
  EXPECT_NEAR(AngleOf({0, 0}, {-1, 0}), kPi, kEps);
  EXPECT_NEAR(AngleOf({0, 0}, {0, -1}), 1.5 * kPi, kEps);
}

TEST(AngleTest, PointAtAngleRoundTrip) {
  const Point c{10, 20};
  for (double a : {0.0, 1.0, 2.5, 4.0, 6.0}) {
    const Point p = PointAtAngle(c, a, 7.0);
    EXPECT_NEAR(Distance(c, p), 7.0, kEps);
    EXPECT_NEAR(AngleOf(c, p), a, 1e-9);
  }
}

TEST(LerpTest, Endpoints) {
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 0.0), Point(0, 0));
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 1.0), Point(10, 20));
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 0.5), Point(5, 10));
}

TEST(SegmentTest, PointSegmentDistance) {
  // Perpendicular foot inside the segment.
  EXPECT_NEAR(PointSegmentDistance({5, 3}, {0, 0}, {10, 0}), 3.0, kEps);
  // Foot beyond the end: distance to the endpoint.
  EXPECT_NEAR(PointSegmentDistance({13, 4}, {0, 0}, {10, 0}), 5.0, kEps);
  // Degenerate segment.
  EXPECT_NEAR(PointSegmentDistance({3, 4}, {0, 0}, {0, 0}), 5.0, kEps);
}

TEST(SegmentTest, IntersectionCases) {
  // Proper crossing.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 10}, {0, 10}, {10, 0}));
  // Disjoint.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 1}, {2, 2}, {3, 3.5}));
  // Shared endpoint.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {5, 5}, {5, 5}, {10, 0}));
  // Collinear overlap.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {5, 0}, {3, 0}, {8, 0}));
  // Collinear but disjoint.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {2, 0}, {3, 0}, {8, 0}));
  // Parallel.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {5, 0}, {0, 1}, {5, 1}));
}

TEST(RectTest, EmptyBehaviour) {
  const Rect e{{1, 1}, {0, 0}};
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
}

TEST(RectTest, ContainsPoint) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.Contains(Point{5, 5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));  // Border inclusive.
  EXPECT_FALSE(r.Contains(Point{10.01, 5}));
}

TEST(RectTest, Area) {
  const Rect a{{0, 0}, {2, 2}};
  EXPECT_DOUBLE_EQ(a.Area(), 4.0);
}

TEST(RectTest, MinDistance) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_DOUBLE_EQ(r.MinDistance({5, 5}), 0.0);   // Inside.
  EXPECT_DOUBLE_EQ(r.MinDistance({15, 5}), 5.0);  // Right of.
  EXPECT_DOUBLE_EQ(r.MinDistance({13, 14}), 5.0); // Corner (3-4-5).
}

TEST(RectTest, Clamp) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_EQ(r.Clamp({-5, 5}), Point(0, 5));
  EXPECT_EQ(r.Clamp({20, -3}), Point(10, 0));
  EXPECT_EQ(r.Clamp({4, 4}), Point(4, 4));
}

TEST(SectorPartitionTest, SectorOfCardinalPoints) {
  const SectorPartition s({0, 0}, 4);  // Quadrant sectors.
  EXPECT_EQ(s.SectorOf({1, 0.1}), 0);
  EXPECT_EQ(s.SectorOf({-1, 0.1}), 1);
  EXPECT_EQ(s.SectorOf({-1, -0.1}), 2);
  EXPECT_EQ(s.SectorOf({1, -0.1}), 3);
  EXPECT_EQ(s.SectorOf({0, 0}), 0);  // Origin convention.
}

TEST(SectorPartitionTest, BordersAndBisectors) {
  const SectorPartition s({0, 0}, 8);
  EXPECT_NEAR(s.SectorAngle(), kPi / 4, kEps);
  EXPECT_NEAR(s.LowerBorderAngle(0), 0.0, kEps);
  EXPECT_NEAR(s.UpperBorderAngle(0), kPi / 4, kEps);
  EXPECT_NEAR(s.BisectorAngle(0), kPi / 8, kEps);
  EXPECT_NEAR(s.BisectorAngle(7), NormalizeAngle(7.5 * kPi / 4), kEps);
}

TEST(SectorPartitionTest, InSectorRespectsRadius) {
  const SectorPartition s({0, 0}, 8);
  const Point p = PointAtAngle({0, 0}, s.BisectorAngle(3), 5.0);
  EXPECT_TRUE(s.InSector(p, 3, 6.0));
  EXPECT_FALSE(s.InSector(p, 3, 4.0));  // Outside radius.
  EXPECT_FALSE(s.InSector(p, 4, 6.0));  // Wrong sector.
}

// Property: every point maps to exactly the sector whose angular range
// contains it, for many random sector counts and points.
TEST(SectorPartitionTest, PropertySectorMatchesAngle) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = rng.UniformInt(1, 16);
    const Point origin = rng.PointInRect({{-50, -50}, {50, 50}});
    const SectorPartition s(origin, count);
    const Point p = rng.PointInRect({{-100, -100}, {100, 100}});
    if (p == origin) continue;
    const int idx = s.SectorOf(p);
    const double angle = AngleOf(origin, p);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, count);
    // The angle must lie within [lower, upper) modulo rounding at wrap.
    const double lower = s.LowerBorderAngle(idx);
    double rel = NormalizeAngle(angle - lower);
    EXPECT_LT(rel, s.SectorAngle() + 1e-9);
  }
}

}  // namespace
}  // namespace diknn
