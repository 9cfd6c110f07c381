// Conservative parallel discrete-event engine (PDES) for the substrate.
//
// PsimEngine builds a PsimWorld (nodes, mobility, the tiled
// FieldPartition), hands each tile to a PsimShard with its own
// timer-wheel Simulator, and runs all shards in lock-step over
// fixed-length lookahead windows:
//
//   for each window k:            (all shards, one std::barrier each)
//     barrier ─ sweep   : re-bucket owned nodes, mail migrations,
//                         expire neighbor tables   (every R windows)
//     barrier ─ drain   : adopt migrated nodes, chain neighbor frames
//             ─ process : decide window k-2 receptions, run local
//                         events in [kL, (k+1)L)
//
// This is the windowed (bounded-lag) flavor of conservative PDES: the
// lookahead L is the air time of the largest substrate frame, so no
// event a shard executes inside window k can affect any other shard
// before window k+1, and no null messages are needed — the barrier IS
// the null message, amortized over every pair at once.
//
// Determinism contract (docs/ENGINE.md): the serial engine remains the
// anchor — `--shards 1` in the harness runs the serial path unchanged —
// and within psim every partition-invariant counter (frames, collisions,
// losses, neighbor updates, query-plane hops, the full SloReport) is
// byte-equal across shard counts, enforced by psim_determinism_test.

#ifndef DIKNN_PSIM_ENGINE_H_
#define DIKNN_PSIM_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "psim/shard.h"

namespace diknn {

/// Outcome of one parallel substrate run.
struct PsimResult {
  PsimStats totals;                       ///< Shard-order sum.
  std::vector<PsimStats> shard_stats;     ///< Per shard, in shard order.
  EngineStats engine;                     ///< Merged scheduler counters.
  std::vector<EngineStats> shard_engine;  ///< Per-shard scheduler counters.
  MetricsSnapshot obs;                    ///< psim.* / net.* / engine.*.
  int shards = 1;                         ///< Effective shard count.
  int shards_requested = 1;               ///< Before the geometry clamp.
  uint64_t windows = 0;
  double lookahead_s = 0.0;
  double wall_s = 0.0;                    ///< Run() wall-clock seconds.
  double average_degree = 0.0;            ///< Mean fresh neighbors at end.
  bool query_ran = false;                 ///< Query plane was enabled.
  SloReport slo;                          ///< Query-plane outcome (if ran).
  /// Flight recording (empty unless PsimConfig::ts enables a cadence).
  /// Deterministic series are bit-identical across shard counts; the
  /// psim.shardK.* diagnostics are not (busy_s precedent).
  TimeSeriesSet ts;
};

/// Sums counters and maxes the peak gauges across shards.
EngineStats MergeEngineStats(const std::vector<EngineStats>& stats);

/// Deterministic JSON of the snapshot's partition-invariant subset: drops
/// the per-shard rows, the exchange counters (boundary/foreign/remail/
/// migration/sweep traffic), scheduler internals, and the allocation
/// tallies — everything that legitimately varies with the shard count —
/// so the result is byte-comparable across --shards 1/2/4/8.
std::string InvariantObsJson(const MetricsSnapshot& snapshot);

class PsimEngine {
 public:
  explicit PsimEngine(const PsimConfig& config);

  PsimEngine(const PsimEngine&) = delete;
  PsimEngine& operator=(const PsimEngine&) = delete;

  /// Runs the configured duration once. Call at most once per engine.
  PsimResult Run();

  int shards() const { return static_cast<int>(shards_.size()); }
  /// Every owned node's bucket maps back to its owner and its pending
  /// event is live, on every shard. Test hook; post-run only.
  bool OwnershipInvariantHolds() const;

 private:
  void BuildWorld();
  MetricsSnapshot BuildObsSnapshot(const PsimResult& result) const;

  PsimConfig config_;
  std::unique_ptr<PsimWorld> world_;
  std::vector<std::unique_ptr<PsimShard>> shards_;
  bool ran_ = false;
};

/// Convenience wrapper: build, run, return.
PsimResult RunPsim(const PsimConfig& config);

}  // namespace diknn

#endif  // DIKNN_PSIM_ENGINE_H_
