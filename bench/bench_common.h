// Shared plumbing for the figure-reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper's Section 5
// by running full simulations through the experiment harness and printing
// the same series the paper plots. The repetition count defaults to a
// small value so the whole bench suite runs in minutes; set DIKNN_RUNS=20
// to reproduce the paper's averaging protocol exactly.

#ifndef DIKNN_BENCH_BENCH_COMMON_H_
#define DIKNN_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "git_sha.h"
#include "harness/experiment.h"

namespace diknn::bench {

/// Repetitions per configuration (paper: 20). Override with DIKNN_RUNS.
inline int RunsFromEnv(int fallback = 3) {
  const char* env = std::getenv("DIKNN_RUNS");
  if (env == nullptr) return fallback;
  const int runs = std::atoi(env);
  return runs > 0 ? runs : fallback;
}

/// Simulated seconds per run (paper: 100). Override with DIKNN_DURATION.
inline double DurationFromEnv(double fallback = 100.0) {
  const char* env = std::getenv("DIKNN_DURATION");
  if (env == nullptr) return fallback;
  const double d = std::atof(env);
  return d > 0 ? d : fallback;
}

/// Worker threads for RunExperiment repetitions. Defaults to the
/// hardware concurrency (metrics are bit-identical at any job count);
/// override with DIKNN_JOBS.
inline int JobsFromEnv(int fallback = 0) {
  const char* env = std::getenv("DIKNN_JOBS");
  const int jobs = env != nullptr ? std::atoi(env) : fallback;
  if (jobs > 0) return jobs;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Intra-run shard count (the conservative parallel engine, src/psim).
/// Default 1 = the serial stack; override with DIKNN_SHARDS. Composes
/// multiplicatively with DIKNN_JOBS.
inline int ShardsFromEnv(int fallback = 1) {
  const char* env = std::getenv("DIKNN_SHARDS");
  const int shards = env != nullptr ? std::atoi(env) : fallback;
  return shards > 0 ? shards : fallback;
}

/// DIKNN_WINDOWED=1 forces the windowed engine even at one shard — the
/// like-for-like baseline when comparing against DIKNN_SHARDS > 1 runs
/// (windowed counters are comparable only within the windowed family).
inline bool WindowedFromEnv() {
  const char* env = std::getenv("DIKNN_WINDOWED");
  return env != nullptr && std::atoi(env) != 0;
}

/// Provenance header for every BENCH_*.json: perf numbers are only
/// comparable between runs from the same machine class and build, so
/// each artifact records where it came from. The sha comes from the
/// generated git_sha.h (bench/git_sha.cmake, re-read on every build;
/// "unknown" outside a git checkout), the build type from a CMake
/// compile definition.
inline std::string ProvenanceJson() {
#ifndef DIKNN_BUILD_TYPE
#define DIKNN_BUILD_TYPE "unknown"
#endif
  return std::string("\"provenance\": {\"host_cpus\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" DIKNN_BUILD_TYPE
         "\", \"git_sha\": \"" DIKNN_GIT_SHA "\"}";
}

/// The paper's Section 5.1 default experiment, parameterized by protocol.
/// Its queries are ExperimentConfig's default spec, the paper's k = 40
/// stream; set `workload->k_lo`/`k_hi` to vary k.
inline ExperimentConfig PaperDefaults(ProtocolKind kind) {
  ExperimentConfig config;
  config.protocol = kind;
  config.runs = RunsFromEnv();
  config.duration = DurationFromEnv();
  config.jobs = JobsFromEnv();
  return config;
}

inline void PrintHeader(const char* title, const char* x_label) {
  std::printf("\n=== %s ===\n", title);
  std::printf("runs/config=%d, duration=%.0fs, jobs=%d (DIKNN_RUNS / "
              "DIKNN_DURATION / DIKNN_JOBS env vars override)\n",
              RunsFromEnv(), DurationFromEnv(), JobsFromEnv());
  std::printf("%-10s %-10s %12s %12s %10s %10s %10s\n", x_label, "protocol",
              "latency(s)", "energy(J)", "pre_acc", "post_acc", "timeout%");
}

/// One table row. The latency cell averages the runs that resolved a
/// query and reads n/a when none did.
inline void PrintRow(const std::string& x, ProtocolKind kind,
                     const ExperimentMetrics& m) {
  char latency[32] = "n/a";
  if (m.latency.count > 0) {
    std::snprintf(latency, sizeof(latency), "%9.3f±%-5.2f", m.latency.mean,
                  m.latency.stddev);
  }
  std::printf("%-10s %-10s %16s %9.3f %10.3f %10.3f %9.1f%%\n", x.c_str(),
              ProtocolName(kind), latency, m.energy.mean,
              m.pre_accuracy.mean, m.post_accuracy.mean,
              100.0 * m.timeout_rate.mean);
  std::fflush(stdout);
}

}  // namespace diknn::bench

#endif  // DIKNN_BENCH_BENCH_COMMON_H_
