// bench_fault_soak — fault-injected lifecycle soak.
//
// Runs the paper's DIKNN workload under a hostile fault plan (node kills,
// churn, ACK-loss bursts, frame drops/duplication, sink freezes and
// teleports) with the LifecycleAuditor armed, and reports how much
// per-query state survived: the answer must always be zero. Emits
// machine-readable BENCH_faults.json in the working directory so the
// lifecycle trajectory (and the fault tolerance of the metrics) can be
// tracked across PRs.
//
// Env knobs: DIKNN_RUNS, DIKNN_DURATION, DIKNN_JOBS (see bench_common.h).

#include <cstdio>
#include <fstream>

#include "bench_common.h"

namespace {

using namespace diknn;
using namespace diknn::bench;

// The standing soak plan: early attrition, a churn regime, total ACK
// blackout, lossy + duplicating air, and a sink that freezes then jumps.
constexpr char kSoakPlan[] =
    "kill@t=3,count=10;"
    "churn@t=5,up=20,down=6;"
    "ackloss@t=8,dur=3;"
    "drop@t=14,dur=4,prob=0.3;"
    "dup@t=20,dur=5,prob=0.2;"
    "freeze@t=26,node=0,dur=6;"
    "teleport@t=34,node=0,x=10,y=10,dur=8";

}  // namespace

int main() {
  ExperimentConfig config = PaperDefaults(ProtocolKind::kDiknn);
  config.audit_lifecycle = true;
  std::string error;
  const auto plan = FaultPlan::Parse(kSoakPlan, &error);
  if (!plan) {
    std::fprintf(stderr, "internal: bad soak plan: %s\n", error.c_str());
    return 1;
  }
  config.faults = *plan;

  std::printf("=== bench_fault_soak: DIKNN under %s ===\n",
              config.faults.ToSpec().c_str());
  std::printf("runs=%d, duration=%.0fs, jobs=%d\n", config.runs,
              config.duration, config.jobs);

  const std::vector<RunMetrics> runs = RunExperimentRuns(config);

  uint64_t faults = 0, checks = 0, violations = 0, leaked = 0;
  std::printf("%-6s %8s %9s %8s %10s %12s %8s\n", "seed", "queries",
              "timeouts", "faults", "lc_checks", "violations", "leaked");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunMetrics& m = runs[i];
    faults += m.faults_injected;
    checks += m.lifecycle_checks;
    violations += m.lifecycle_violations;
    leaked += m.leaked_entries;
    std::printf("%-6llu %8llu %9llu %8llu %10llu %12llu %8llu\n",
                static_cast<unsigned long long>(config.base_seed + i),
                static_cast<unsigned long long>(m.slo.issued),
                static_cast<unsigned long long>(m.slo.timed_out),
                static_cast<unsigned long long>(m.faults_injected),
                static_cast<unsigned long long>(m.lifecycle_checks),
                static_cast<unsigned long long>(m.lifecycle_violations),
                static_cast<unsigned long long>(m.leaked_entries));
  }

  const ExperimentMetrics agg = AggregateRuns(runs);
  std::printf("mean: latency %.2fs, post_acc %.2f, timeout rate %.0f%%\n",
              agg.latency.mean, agg.post_accuracy.mean,
              100 * agg.timeout_rate.mean);

  std::ofstream out("BENCH_faults.json");
  out << "{\n  \"bench\": \"fault_soak\",\n"
      << "  " << bench::ProvenanceJson() << ",\n"
      << "  \"plan\": \"" << config.faults.ToSpec() << "\",\n"
      << "  \"runs\": " << runs.size() << ",\n"
      << "  \"faults_injected\": " << faults << ",\n"
      << "  \"lifecycle_checks\": " << checks << ",\n"
      << "  \"lifecycle_violations\": " << violations << ",\n"
      << "  \"leaked_entries\": " << leaked << ",\n"
      << "  \"latency_s\": " << agg.latency.mean << ",\n"
      << "  \"post_accuracy\": " << agg.post_accuracy.mean << ",\n"
      << "  \"timeout_rate\": " << agg.timeout_rate.mean << "\n}\n";
  std::printf("wrote BENCH_faults.json\n");

  if (violations != 0 || leaked != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu lifecycle violations, %llu leaked entries\n",
                 static_cast<unsigned long long>(violations),
                 static_cast<unsigned long long>(leaked));
    return 1;
  }
  return 0;
}
