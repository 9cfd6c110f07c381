// Query coalescing: co-located in-flight queries share one itinerary.
//
// The first protocol-launched query for a (cache cell, query class) pair
// becomes the *leader*; queries arriving for the same pair while the
// leader is still in flight — and younger than the coalesce window —
// attach as *followers* instead of launching their own itinerary. When
// the leader's answer arrives at the sink, the driver fans it back out:
// each follower receives the leader's k-superset re-pruned around its own
// query point and truncated to its own k (a follower may ask for at most
// `kslack` more neighbors than the leader carries; the excess goes
// unfilled). A leader that times out or dies mid-itinerary drags its
// followers into the same outcome, so the workload outcome partition
// (issued == completed + missed + rejected + timed_out) always balances.
//
// The registry is plain deterministic bookkeeping: attach order is
// arrival order, fan-out order is attach order. Leader slots and their
// follower lists are recycled in place, so once the registry has reached
// its high-water size attaching and resolving never allocate.

#ifndef DIKNN_SERVING_COALESCER_H_
#define DIKNN_SERVING_COALESCER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flat_map.h"
#include "sim/event_queue.h"

namespace diknn {

class QueryCoalescer {
 public:
  /// One follower popped at leader completion.
  struct Follower {
    uint64_t ticket = 0;  ///< Caller-assigned query id.
    int k = 0;            ///< The follower's own k (truncation target).
  };

  /// `window` is the maximum leader age (s) a follower may attach to;
  /// `kslack` the per-follower k overshoot tolerance.
  QueryCoalescer(double window, int kslack)
      : window_(window), kslack_(kslack) {}

  /// Attaches `ticket` to the leader registered under `key` when one is
  /// in flight, younger than the window, and carrying k >= k - kslack.
  /// Returns the leader's ticket on success.
  std::optional<uint64_t> TryAttach(uint64_t key, uint64_t ticket, int k,
                                    SimTime now);

  /// Registers `ticket` as the leader for `key` (it is being launched on
  /// the protocol now). Replaces any previous leader for the key — the
  /// old one keeps its followers and still fans out on completion; it
  /// just stops accepting new ones.
  void RegisterLeader(uint64_t key, uint64_t ticket, int k, SimTime now);

  /// The leader resolved (completed, timed out, or died): unregisters it
  /// and returns its followers in attach order. Safe to call for tickets
  /// that never led (returns empty). The list is a reusable buffer, valid
  /// until the next call.
  const std::vector<Follower>& OnLeaderResolved(uint64_t ticket);

 private:
  struct Leader {
    uint64_t ticket = 0;
    uint64_t key = 0;  ///< So completion can clear by_key_ without a scan.
    int k = 0;
    SimTime launched_at = 0.0;
    std::vector<Follower> followers;
  };

  double window_;
  int kslack_;
  /// Leader slots; a resolved leader's slot goes on `free_slots_`.
  std::vector<Leader> leaders_;
  std::vector<uint32_t> free_slots_;
  /// Every in-flight leader's slot by ticket (including replaced leaders,
  /// which keep their followers until they resolve).
  FlatMap<uint64_t, uint32_t> by_ticket_;
  /// The current attach target per (cell, class) key.
  FlatMap<uint64_t, uint64_t> by_key_;
  std::vector<Follower> resolved_;  ///< OnLeaderResolved's answer.
};

}  // namespace diknn

#endif  // DIKNN_SERVING_COALESCER_H_
