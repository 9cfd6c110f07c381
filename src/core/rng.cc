#include "core/rng.h"

#include <cassert>
#include <cmath>

#include "core/splitmix.h"

namespace diknn {

Rng::Rng(uint64_t seed) {
  // Two SplitMix64 steps expand the user seed into PCG's (state, inc)
  // pair, so small consecutive seeds still produce decorrelated streams.
  state_ = SplitMix64(seed);
  inc_ = SplitMix64(seed + kSplitMixGamma) | 1ULL;  // Must be odd.
  NextUint32();  // Warm up past the seed-correlated state.
}

uint32_t Rng::NextUint32() {
  const uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const uint32_t xorshifted =
      static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  const uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Rng::NextDouble() {
  // 53 random bits -> [0, 1) with full double precision.
  const uint64_t hi = static_cast<uint64_t>(NextUint32()) << 21;
  const uint64_t lo = NextUint32() >> 11;
  return static_cast<double>(hi | lo) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int Rng::UniformInt(int lo, int hi) {
  assert(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi) - lo + 1;
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = (0x100000000ULL / range) * range;
  uint64_t r;
  do {
    r = NextUint32();
  } while (r >= limit);
  return lo + static_cast<int>(r % range);
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 == 0.0);
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return mean + stddev * z;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Point Rng::PointInRect(const Rect& rect) {
  return {Uniform(rect.min.x, rect.max.x), Uniform(rect.min.y, rect.max.y)};
}

Point Rng::PointInDisk(const Point& c, double r) {
  // Inverse-CDF sampling: radius ~ r*sqrt(U) gives area-uniform points.
  const double rad = r * std::sqrt(NextDouble());
  const double ang = Uniform(0.0, kTwoPi);
  return PointAtAngle(c, ang, rad);
}

Rng Rng::Fork() {
  const uint64_t child_seed =
      (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
  return Rng(child_seed);
}

}  // namespace diknn
