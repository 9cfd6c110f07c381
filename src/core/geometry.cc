#include "core/geometry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace diknn {

Point Point::Normalized() const {
  const double n = Norm();
  if (n == 0.0) return {0.0, 0.0};
  return {x / n, y / n};
}

Point Point::Rotated(double radians) const {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  return {x * c - y * s, x * s + y * c};
}

std::string Point::ToString() const {
  std::ostringstream os;
  os << "(" << x << ", " << y << ")";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << p.ToString();
}

double NormalizeAngle(double radians) {
  double a = std::fmod(radians, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  // fmod can return exactly kTwoPi after the correction due to rounding.
  if (a >= kTwoPi) a -= kTwoPi;
  return a;
}

double AngleDifference(double a, double b) {
  double d = std::fmod(a - b, kTwoPi);
  if (d > kPi) d -= kTwoPi;
  if (d <= -kPi) d += kTwoPi;
  return d;
}

double AngleOf(const Point& from, const Point& to) {
  return NormalizeAngle(std::atan2(to.y - from.y, to.x - from.x));
}

Point PointAtAngle(const Point& center, double angle, double radius) {
  return {center.x + radius * std::cos(angle),
          center.y + radius * std::sin(angle)};
}

Point Lerp(const Point& a, const Point& b, double t) {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

double PointSegmentDistance(const Point& p, const Point& a, const Point& b) {
  const Point ab = b - a;
  const double len2 = ab.SquaredNorm();
  if (len2 == 0.0) return Distance(p, a);
  double t = (p - a).Dot(ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return Distance(p, a + ab * t);
}

namespace {

// Orientation of the ordered triple (a, b, c): >0 counter-clockwise,
// <0 clockwise, 0 collinear (within exact double arithmetic).
double Orient(const Point& a, const Point& b, const Point& c) {
  return (b - a).Cross(c - a);
}

bool OnSegment(const Point& a, const Point& b, const Point& p) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

}  // namespace

bool SegmentsIntersect(const Point& a, const Point& b, const Point& c,
                       const Point& d) {
  const double o1 = Orient(a, b, c);
  const double o2 = Orient(a, b, d);
  const double o3 = Orient(c, d, a);
  const double o4 = Orient(c, d, b);

  if (((o1 > 0) != (o2 > 0)) && ((o3 > 0) != (o4 > 0)) && o1 != 0 &&
      o2 != 0 && o3 != 0 && o4 != 0) {
    return true;
  }
  // Collinear overlap / endpoint-touch cases.
  if (o1 == 0 && OnSegment(a, b, c)) return true;
  if (o2 == 0 && OnSegment(a, b, d)) return true;
  if (o3 == 0 && OnSegment(c, d, a)) return true;
  if (o4 == 0 && OnSegment(c, d, b)) return true;
  return false;
}

double Rect::MinDistance(const Point& p) const {
  if (IsEmpty()) return std::numeric_limits<double>::infinity();
  const double dx = std::max({min.x - p.x, 0.0, p.x - max.x});
  const double dy = std::max({min.y - p.y, 0.0, p.y - max.y});
  return std::hypot(dx, dy);
}

Point Rect::Clamp(const Point& p) const {
  return {std::clamp(p.x, min.x, max.x), std::clamp(p.y, min.y, max.y)};
}

std::string Rect::ToString() const {
  std::ostringstream os;
  os << "[" << min.ToString() << " - " << max.ToString() << "]";
  return os.str();
}

SectorPartition::SectorPartition(Point origin, int count)
    : origin_(origin), count_(count < 1 ? 1 : count) {}

int SectorPartition::SectorOf(const Point& p) const {
  if (p == origin_) return 0;
  const double angle = AngleOf(origin_, p);
  int idx = static_cast<int>(angle / SectorAngle());
  // Guard against angle == 2*pi rounding artifacts.
  if (idx >= count_) idx = count_ - 1;
  return idx;
}

double SectorPartition::LowerBorderAngle(int i) const {
  return NormalizeAngle(i * SectorAngle());
}

double SectorPartition::UpperBorderAngle(int i) const {
  return NormalizeAngle((i + 1) * SectorAngle());
}

double SectorPartition::BisectorAngle(int i) const {
  return NormalizeAngle((i + 0.5) * SectorAngle());
}

bool SectorPartition::InSector(const Point& p, int i, double radius) const {
  if (Distance(p, origin_) > radius) return false;
  return SectorOf(p) == i;
}

}  // namespace diknn
