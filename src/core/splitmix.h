// The splitmix64 mixer, shared by every hash and seed expansion in the
// simulator: FlatMap's default hash, Rng's seed expansion, the tracer's
// sampling test, and psim's per-node seeds and stateless loss hashes.
// Header-only so the FlatMap probe inlines it.

#ifndef DIKNN_CORE_SPLITMIX_H_
#define DIKNN_CORE_SPLITMIX_H_

#include <cstdint>

namespace diknn {

/// The SplitMix64 generator's per-step increment (2^64 / golden ratio).
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64: the SplitMix64 generator's output for state `x`, that is
/// `x + kSplitMixGamma` run through its avalanche finalizer. Sequential
/// inputs (node ids, query ids, counters) come out decorrelated.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace diknn

#endif  // DIKNN_CORE_SPLITMIX_H_
