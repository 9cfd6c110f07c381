// Experiment runner: builds a network, installs a KNN protocol, replays a
// workload spec through the QueryDriver (by default the paper's Section
// 5.1 stream: Poisson arrivals at the sink, uniform query points),
// scores every query into an SloReport and against the ground-truth
// oracle, and aggregates the paper's three metrics over repeated seeded
// runs.

#ifndef DIKNN_HARNESS_EXPERIMENT_H_
#define DIKNN_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <vector>

#include "baselines/centralized.h"
#include "baselines/flooding.h"
#include "baselines/kpt.h"
#include "baselines/peertree.h"
#include "faults/fault_plan.h"
#include "harness/metrics.h"
#include "knn/diknn.h"
#include "net/network.h"
#include "obs/timeseries.h"
#include "workload/query_sink.h"
#include "workload/workload_spec.h"

namespace diknn {

struct TraceData;

/// Protocol selector for experiments.
enum class ProtocolKind {
  kDiknn,
  kKptKnnb,
  kPeerTree,
  kFlooding,
  kCentralized,
};

const char* ProtocolName(ProtocolKind kind);

/// Full experiment configuration; defaults reproduce the paper's Section
/// 5.1 parameter table (200 nodes, 115x115 m^2, r = 20 m, 250 kbps,
/// mu_max = 10 m/s, beacon 0.5 s, query interval exp(4 s), S = 8,
/// m = 0.018 s, g = 0.1, rendezvous enabled, 100 s runs, 20 repetitions).
struct ExperimentConfig {
  NetworkConfig network;
  ProtocolKind protocol = ProtocolKind::kDiknn;
  /// Issue all queries from a stationary sink node (node 0), the usual
  /// WSN base-station reading of "the sink node s". When false, each
  /// query picks a random mobile node as its sink.
  bool static_sink = true;
  SimTime duration = 100.0;  ///< Queries issued during [0, duration).
  SimTime warmup = 2.5;      ///< Beacon/registration warm-up.
  SimTime drain = 9.0;       ///< Post-duration settling time.
  int runs = 20;
  uint64_t base_seed = 42;
  /// Worker threads for RunExperiment's repetitions. Each (config, seed)
  /// run owns its whole stack (network, simulator, forked PCG32 streams),
  /// so runs execute in parallel without sharing; results are aggregated
  /// in seed order either way, making every metric bit-identical to a
  /// sequential execution regardless of this setting. Clamped to
  /// [1, runs]. Benches wire the DIKNN_JOBS env var here.
  int jobs = 1;
  /// Adverse events injected after warmup (times relative to the start of
  /// the measured workload). Each run replays the same plan with its own
  /// seed-derived RNG stream, so faulted runs stay bit-identical at any
  /// `jobs` count. Empty = clean run.
  FaultPlan faults;
  /// Install a LifecycleAuditor on the DIKNN instance: assert per-query
  /// state is reclaimed at every completion and count post-drain leaks
  /// into RunMetrics. No effect on other protocols.
  bool audit_lifecycle = false;
  /// The queries of every run (src/workload/workload_spec.h), replayed
  /// by a QueryDriver on the serial engine and by the query plane on the
  /// windowed one; either scores an SloReport into RunMetrics::slo. The
  /// default is the paper's Section 5.1 stream: one k = 40 point-KNN
  /// query per exponential(4 s) arrival, the spec
  /// "arrival@kind=poisson,rate=0.25;k@lo=40". Edit its k_lo/k_hi and
  /// rate to vary k and the query interval. It must hold a spec: an
  /// empty optional is a caller error.
  std::optional<WorkloadSpec> workload = WorkloadSpec{.rate = 0.25};
  /// Worker threads *inside* one run: > 1 tiles the sensor field
  /// (column strips, or a rows x cols grid when the field is too narrow
  /// for that many strips) and runs the conservative parallel engine
  /// (src/psim) instead of the serial stack. --shards 1 (the default) is
  /// the serial engine, unchanged — it is the determinism anchor that
  /// the golden-seed outputs in engine_determinism_test pin. Sharded runs
  /// simulate the beacon substrate plus the workload's full query plane
  /// (GPSR forwarding, DIKNN itineraries, the serving front end),
  /// reporting psim.* / qp.* / serving.* metrics and a populated
  /// SloReport; the SLO report and every partition-invariant
  /// traffic counter are byte-equal across shard counts
  /// (psim_determinism_test). Compose with `jobs` carefully: the total
  /// thread count is jobs x shards.
  int shards = 1;
  /// Run the windowed parallel engine even at shards == 1. This is the
  /// like-for-like baseline for cross-shard comparisons: the windowed
  /// engine emulates (not byte-replicates) the serial protocol stack, so
  /// its counters are comparable only within the windowed family.
  bool force_windowed = false;
  /// Fraction of queries traced by a per-run Tracer, in [0,1]; 0 (the
  /// default) attaches no tracer at all, so the hot paths see only a null
  /// check. Tracing never perturbs the simulation — a traced run's
  /// metrics are bit-identical to an untraced one.
  double trace_sample = 0.0;
  /// Flight-recorder cadence and ring depth; the default interval 0
  /// records nothing and the hot paths see no recorder at all.
  /// Recording never perturbs the simulation either — see
  /// docs/OBSERVABILITY.md "Time series & flight recorder".
  TimeSeriesOptions ts;
  DiknnParams diknn;
  KptParams kpt;
  PeerTreeParams peertree;
  FloodingParams flooding;
  CentralizedParams centralized;
};

/// One assembled protocol stack over one network, usable directly by
/// examples and tests that want to drive queries by hand.
class ProtocolStack {
 public:
  /// Builds the network (adding Peer-tree clusterhead infrastructure when
  /// needed), installs GPSR and the chosen protocol, and warms up.
  ProtocolStack(const ExperimentConfig& config, uint64_t seed);

  Network& network() { return *network_; }
  GpsrRouting& gpsr() { return *gpsr_; }
  KnnProtocol& protocol() { return *protocol_; }

  /// The DIKNN instance, if this stack runs DIKNN (else nullptr).
  Diknn* diknn() { return diknn_; }

 private:
  std::unique_ptr<Network> network_;
  std::unique_ptr<GpsrRouting> gpsr_;
  std::unique_ptr<KnnProtocol> protocol_;
  Diknn* diknn_ = nullptr;
};

/// Runs one seeded simulation and returns its metrics. `records_out`, when
/// non-null, receives the serial engine's per-query records (a windowed
/// run leaves it untouched). `trace_out`, when non-null and the effective
/// trace rate is positive, receives the run's recorded trace (feed it to a
/// TraceSink for Chrome-trace / critical-path export).
RunMetrics RunOnce(const ExperimentConfig& config, uint64_t seed,
                   std::vector<WorkloadQueryRecord>* records_out = nullptr,
                   TraceData* trace_out = nullptr);

/// Runs `config.runs` seeded repetitions (seeds base_seed .. base_seed +
/// runs - 1) across `config.jobs` worker threads and returns the per-run
/// metrics in seed order.
std::vector<RunMetrics> RunExperimentRuns(const ExperimentConfig& config);

/// Runs `config.runs` seeded repetitions and aggregates.
ExperimentMetrics RunExperiment(const ExperimentConfig& config);

}  // namespace diknn

#endif  // DIKNN_HARNESS_EXPERIMENT_H_
