// 2-D geometric primitives used throughout the library.
//
// All coordinates are in meters in a flat Euclidean plane (the paper's
// simulation fields are at most a few hundred meters across, so no geodesic
// handling is needed). Angles are in radians, normalized to [0, 2*pi).

#ifndef DIKNN_CORE_GEOMETRY_H_
#define DIKNN_CORE_GEOMETRY_H_

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

namespace diknn {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// A point (or displacement vector) in the 2-D simulation plane. Units: m.
struct Point {
  double x = 0.0;
  double y = 0.0;

  constexpr Point() = default;
  constexpr Point(double px, double py) : x(px), y(py) {}

  constexpr Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  constexpr Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  constexpr Point operator*(double s) const { return {x * s, y * s}; }
  constexpr Point operator/(double s) const { return {x / s, y / s}; }
  Point& operator+=(const Point& o) {
    x += o.x;
    y += o.y;
    return *this;
  }

  constexpr bool operator==(const Point& o) const = default;

  /// Euclidean norm when interpreted as a vector from the origin.
  double Norm() const { return std::hypot(x, y); }

  /// Squared norm; avoids the sqrt when only comparisons are needed.
  constexpr double SquaredNorm() const { return x * x + y * y; }

  /// Dot product with another vector.
  constexpr double Dot(const Point& o) const { return x * o.x + y * o.y; }

  /// Z-component of the 3-D cross product (signed parallelogram area).
  constexpr double Cross(const Point& o) const { return x * o.y - y * o.x; }

  /// Unit-length copy; returns (0,0) for the zero vector.
  Point Normalized() const;

  /// This vector rotated counter-clockwise by `radians`.
  Point Rotated(double radians) const;

  std::string ToString() const;
};

inline constexpr Point operator*(double s, const Point& p) { return p * s; }

std::ostream& operator<<(std::ostream& os, const Point& p);

/// Euclidean distance between two points (the DIST function of Def. 1).
inline double Distance(const Point& a, const Point& b) {
  return (a - b).Norm();
}

/// Squared Euclidean distance; prefer for comparisons.
inline constexpr double SquaredDistance(const Point& a, const Point& b) {
  return (a - b).SquaredNorm();
}

/// Normalizes an angle into [0, 2*pi).
double NormalizeAngle(double radians);

/// Signed smallest difference a-b, normalized into (-pi, pi].
double AngleDifference(double a, double b);

/// Polar angle of the vector from `from` to `to`, in [0, 2*pi).
double AngleOf(const Point& from, const Point& to);

/// Point at distance `radius` from `center` in direction `angle`.
Point PointAtAngle(const Point& center, double angle, double radius);

/// Linear interpolation between `a` (t=0) and `b` (t=1).
Point Lerp(const Point& a, const Point& b, double t);

/// Distance from point `p` to the closed segment [a, b].
double PointSegmentDistance(const Point& p, const Point& a, const Point& b);

/// True if the closed segments [a,b] and [c,d] intersect.
bool SegmentsIntersect(const Point& a, const Point& b, const Point& c,
                       const Point& d);

/// Axis-aligned bounding rectangle. Used for Peer-tree MBRs and field
/// boundaries. Degenerate (min > max) rectangles are "empty".
struct Rect {
  Point min;  ///< Lower-left corner.
  Point max;  ///< Upper-right corner.

  /// The rectangle spanning [0,w] x [0,h].
  static Rect Field(double w, double h) { return {{0.0, 0.0}, {w, h}}; }

  bool IsEmpty() const { return min.x > max.x || min.y > max.y; }
  double Width() const { return max.x - min.x; }
  double Height() const { return max.y - min.y; }
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }
  Point Center() const { return {(min.x + max.x) / 2, (min.y + max.y) / 2}; }

  bool Contains(const Point& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  /// Minimum Euclidean distance from `p` to this rectangle (0 if inside).
  double MinDistance(const Point& p) const;

  /// `p` clamped into the rectangle.
  Point Clamp(const Point& p) const;

  std::string ToString() const;
};

/// Partition of the disk around a query point into `count` equal cones
/// (Fig. 4(a) of the paper). Sector 0 spans polar angles [0, 2*pi/count).
class SectorPartition {
 public:
  /// Creates a partition of `count` >= 1 sectors centered at `origin`.
  SectorPartition(Point origin, int count);

  int count() const { return count_; }

  /// Central angle of each sector (2*pi / count).
  double SectorAngle() const { return kTwoPi / count_; }

  /// Index in [0, count) of the sector containing `p`. Points at the origin
  /// map to sector 0.
  int SectorOf(const Point& p) const;

  /// Polar angle of the lower (counter-clockwise start) border of sector i.
  double LowerBorderAngle(int i) const;

  /// Polar angle of the upper border of sector i.
  double UpperBorderAngle(int i) const;

  /// Polar angle of the bisector of sector i.
  double BisectorAngle(int i) const;

  /// True if `p` lies inside sector `i` and within `radius` of the origin.
  bool InSector(const Point& p, int i, double radius) const;

 private:
  Point origin_;
  int count_;
};

}  // namespace diknn

#endif  // DIKNN_CORE_GEOMETRY_H_
