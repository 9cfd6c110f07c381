// bench_obs — observability overhead benchmark.
//
// Runs the same workload-driven DIKNN experiment at five observability
// settings:
//
//   off     trace rate 0: no Tracer is constructed at all; every hot
//           path sees only a null-pointer check. This is the shipping
//           default and the configuration the <2% budget is charged to.
//   rate0   a Tracer is attached but its sampling threshold rounds to
//           zero, so every query takes the unsampled early-return path.
//           Measures the cost of the per-call sampled() checks.
//   1pct    1% of queries traced (the recommended production rate).
//   full    every query traced (spans + events for the whole run).
//   timeseries  tracing off, the flight recorder sampling every 0.25
//           sim-seconds (src/obs/flight_recorder.h). The "off" stage is
//           the recorder's disabled path too (a null-pointer check), so
//           the <2% disabled gate covers both subsystems; the enabled
//           recorder is budgeted at <5%.
//
// Each stage replays the identical seeded simulation, so the traffic
// counters must match bit-for-bit across stages (asserted) and frames/sec
// ratios are pure wall-clock ratios. Stages are interleaved across
// repetitions and the best wall time per stage is kept, the standard
// defense against thermal / scheduling drift.
//
// Emits machine-readable BENCH_obs.json in the working directory:
// overhead_disabled_pct is the headline number (off vs the same binary
// with the tracer hook exercised, i.e. rate0).
//
// Env knobs: DIKNN_BENCH_SPAN (simulated seconds, default 30),
// DIKNN_BENCH_REPS (repetitions per stage, default 7),
// DIKNN_OBS_SMOKE=1 (shrink everything for a CI smoke pass).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/tracer.h"

#include "bench_common.h"

namespace {

using namespace diknn;

bool SmokeMode() {
  const char* env = std::getenv("DIKNN_OBS_SMOKE");
  return env != nullptr && env[0] == '1';
}

double SpanFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_SPAN");
  const double span = env != nullptr ? std::atof(env) : 0.0;
  if (span > 0.0) return span;
  return SmokeMode() ? 4.0 : 30.0;
}

int RepsFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_REPS");
  const int reps = env != nullptr ? std::atoi(env) : 0;
  if (reps > 0) return reps;
  return SmokeMode() ? 2 : 7;
}

struct Stage {
  const char* name;
  double rate;
  double ts_interval;  ///< Flight-recorder cadence; 0 = disabled.
};

// The unsampled-path stage wants a tracer object whose threshold is zero;
// any rate below 2^-64 of the u64 range qualifies.
constexpr double kEffectivelyZero = 1e-30;

constexpr Stage kStages[] = {
    {"off", 0.0, 0.0},
    {"rate0", kEffectivelyZero, 0.0},
    {"1pct", 0.01, 0.0},
    {"full", 1.0, 0.0},
    {"timeseries", 0.0, 0.25},
};
constexpr int kNumStages = 5;

struct StageResult {
  uint64_t frames = 0;
  uint64_t queries_sampled = 0;
  uint64_t spans = 0;
  uint64_t ts_samples = 0;
  double best_wall_s = 1e300;
  double frames_per_s = 0.0;
};

ExperimentConfig BenchConfig(double span) {
  ExperimentConfig config;
  config.network.node_count = 150;
  config.network.field = Rect::Field(100.0, 100.0);
  config.duration = span;
  config.drain = 5.0;
  config.runs = 1;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=8;mix@knn=70,window=15,aggregate=15;"
      "k@lo=4,hi=12;deadline@s=2;admit@inflight=12,queue=8",
      &error);
  if (!config.workload.has_value()) {
    std::fprintf(stderr, "workload spec: %s\n", error.c_str());
    std::exit(1);
  }
  return config;
}

}  // namespace

int main() {
  const double span = SpanFromEnv();
  const int reps = RepsFromEnv();
  const ExperimentConfig base = BenchConfig(span);

  std::printf("=== bench_obs: %.0fs sim x %d reps per stage ===\n", span,
              reps);
  std::printf("%-10s %12s %10s %14s %10s %10s %10s\n", "stage", "frames",
              "wall(s)", "frames/sec", "sampled", "spans", "ts_samples");

  // One discarded pass warms code and allocator caches so the first
  // measured stage is not systematically penalized.
  {
    ExperimentConfig warm = base;
    RunOnce(warm, 42);
  }

  StageResult results[kNumStages];
  bool traffic_equal = true;
  for (int rep = 0; rep < reps; ++rep) {
    for (int s = 0; s < kNumStages; ++s) {
      ExperimentConfig config = base;
      config.trace_sample = kStages[s].rate;
      config.ts.interval = kStages[s].ts_interval;
      TraceData trace;
      const auto start = std::chrono::steady_clock::now();
      const RunMetrics m = RunOnce(config, 42, nullptr, &trace);
      const auto stop = std::chrono::steady_clock::now();
      const double wall =
          std::chrono::duration<double>(stop - start).count();

      StageResult& r = results[s];
      const uint64_t frames = m.obs.CounterValue("channel.frames_sent");
      if (rep == 0 && s == 0) {
        results[0].frames = frames;
      } else if (frames != results[0].frames) {
        traffic_equal = false;  // Tracing perturbed the run — a bug.
      }
      r.frames = frames;
      r.queries_sampled = trace.stats.queries_sampled;
      r.spans = trace.stats.spans;
      r.ts_samples = 0;
      for (const TimeSeries& ts : m.ts.series()) r.ts_samples += ts.size();
      if (wall < r.best_wall_s) r.best_wall_s = wall;
    }
  }

  for (int s = 0; s < kNumStages; ++s) {
    StageResult& r = results[s];
    r.frames_per_s = static_cast<double>(r.frames) / r.best_wall_s;
    std::printf("%-10s %12llu %10.3f %14.0f %10llu %10llu %10llu\n",
                kStages[s].name,
                static_cast<unsigned long long>(r.frames), r.best_wall_s,
                r.frames_per_s,
                static_cast<unsigned long long>(r.queries_sampled),
                static_cast<unsigned long long>(r.spans),
                static_cast<unsigned long long>(r.ts_samples));
  }

  const auto overhead_pct = [&](int s) {
    return (results[s].best_wall_s / results[0].best_wall_s - 1.0) * 100.0;
  };
  const double disabled = overhead_pct(1);
  const double sampled_1pct = overhead_pct(2);
  const double full = overhead_pct(3);
  const double timeseries = overhead_pct(4);
  std::printf("overhead vs off: rate0 %+.2f%%, 1%% %+.2f%%, full %+.2f%%, "
              "timeseries %+.2f%%\n",
              disabled, sampled_1pct, full, timeseries);
  std::printf("traffic identical across stages: %s\n",
              traffic_equal ? "yes" : "NO (observer effect!)");

  std::ofstream out("BENCH_obs.json");
  out << "{\n  \"bench\": \"obs\",\n  " << bench::ProvenanceJson()
      << ",\n  \"sim_span_s\": " << span
      << ",\n  \"reps\": " << reps
      << ",\n  \"traffic_identical\": " << (traffic_equal ? "true" : "false")
      << ",\n  \"overhead_disabled_pct\": " << disabled
      << ",\n  \"overhead_1pct_pct\": " << sampled_1pct
      << ",\n  \"overhead_full_pct\": " << full
      << ",\n  \"overhead_timeseries_pct\": " << timeseries
      << ",\n  \"stages\": [\n";
  for (int s = 0; s < kNumStages; ++s) {
    const StageResult& r = results[s];
    out << "    {\"stage\": \"" << kStages[s].name
        << "\", \"trace_rate\": " << kStages[s].rate
        << ", \"ts_interval_s\": " << kStages[s].ts_interval
        << ", \"frames\": " << r.frames << ", \"wall_s\": " << r.best_wall_s
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"queries_sampled\": " << r.queries_sampled
        << ", \"spans\": " << r.spans
        << ", \"ts_samples\": " << r.ts_samples << "}"
        << (s + 1 < kNumStages ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_obs.json\n");
  return traffic_equal ? 0 : 1;
}
