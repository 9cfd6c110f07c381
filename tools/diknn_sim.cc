// diknn_sim — command-line experiment runner.
//
// Runs the paper's workload (Poisson query arrivals over a mobile sensor
// field) for any protocol and parameterization, printing a human-readable
// summary or CSV. The scriptable face of the library: everything the
// bench binaries sweep can be reproduced point-by-point from here.
//
//   $ diknn_sim --protocol diknn --k 40 --runs 5
//   $ diknn_sim --protocol kpt --speed 30 --csv
//   $ diknn_sim --protocol diknn --trace /tmp/frames.csv --runs 1

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "harness/experiment.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"

namespace {

using namespace diknn;

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Numeric values must be finite and in range: counts >= 1 (--ts-capacity\n"
      ">= 0), durations, intervals and lengths > 0 (--speed and\n"
      "--ts-interval >= 0), --loss, --gain and --trace-sample in [0,1].\n"
      "Anything else exits with code 2.\n"
      "\n"
      "workload:\n"
      "  --protocol NAME   diknn | kpt | peertree | flooding | centralized"
      "  (default diknn)\n"
      "  --k N             neighbors per query (default 40)\n"
      "  --runs N          seeded repetitions (default 3; paper used 20)\n"
      "  --jobs N          worker threads across repetitions (default 1;\n"
      "                    metrics are bit-identical at any job count)\n"
      "  --shards N        worker threads inside each run (default 1 =\n"
      "                    the serial engine). > 1 tiles the field\n"
      "                    (strips, or a 2-D grid on narrow fields) on\n"
      "                    the conservative parallel engine (src/psim):\n"
      "                    beacons plus — with --workload — the full\n"
      "                    query plane; SLO report and traffic counters\n"
      "                    equal at any shard count; total threads =\n"
      "                    jobs x shards\n"
      "  --windowed        run the windowed parallel engine even at\n"
      "                    --shards 1 (the single-shard baseline for\n"
      "                    cross-shard comparisons)\n"
      "  --duration S      simulated seconds per run (default 100)\n"
      "  --seed N          base seed (default 42)\n"
      "  --interval S      mean query interval, exponential (default 4)\n"
      "\n"
      "network:\n"
      "  --nodes N         sensor count (default 200)\n"
      "  --field W         square field side in meters (default 115)\n"
      "  --speed MU        random-waypoint max speed m/s (default 10)\n"
      "  --range R         radio range in meters (default 20)\n"
      "  --loss P          packet loss rate 0..1 (default 0)\n"
      "  --placement NAME  uniform | grid | clustered (default uniform)\n"
      "  --mobility NAME   rwp | static | group (default rwp)\n"
      "\n"
      "diknn:\n"
      "  --sectors S       itinerary sectors (default 8)\n"
      "  --no-rendezvous   disable dynamic boundary adjustment\n"
      "  --gain G          mobility assurance gain (default 0.1)\n"
      "\n"
      "workload engine:\n"
      "  --workload SPEC   replace the paper's one-at-a-time generator\n"
      "                    with the query-serving engine; SPEC is\n"
      "                    section@key=val,...;... (see\n"
      "                    src/workload/workload_spec.h), e.g.\n"
      "                    \"arrival@kind=poisson,rate=8;k@lo=20;\n"
      "                    deadline@s=2;admit@inflight=64,queue=16\"\n"
      "                    Prints an SLO report (goodput, p50/p95/p99,\n"
      "                    miss/reject rates) after the runs.\n"
      "\n"
      "faults:\n"
      "  --faults SPEC     inject adverse events after warmup; SPEC is\n"
      "                    kind@t=S,key=val,...;... with kinds kill, revive,\n"
      "                    churn, ackloss, drop, dup, freeze, teleport\n"
      "                    (see src/faults/fault_plan.h), e.g.\n"
      "                    \"kill@t=5,count=2;ackloss@t=8,dur=2\"\n"
      "  --audit           audit per-query lifecycle state (DIKNN only):\n"
      "                    counts completions that leave residue and\n"
      "                    entries leaked past the drain\n"
      "\n"
      "output:\n"
      "  --csv             machine-readable one-line-per-run output\n"
      "  --trace FILE      write a per-frame CSV trace (first run only)\n"
      "  --trace-out FILE  write a Chrome/Perfetto trace JSON of the base\n"
      "                    seed's run (query span trees + critical paths);\n"
      "                    implies --trace-sample 1 unless set explicitly\n"
      "  --trace-sample R  fraction of queries traced, 0..1 (default 0)\n"
      "  --metrics-out FILE\n"
      "                    write the merged metrics registry (counters,\n"
      "                    gauges, histograms across all runs) as JSON\n"
      "  --ts-interval S   flight-recorder sampling cadence in simulated\n"
      "                    seconds (overrides the workload spec's\n"
      "                    timeseries@ clause; 0 disables)\n"
      "  --ts-capacity N   ring depth per series (default 512; the oldest\n"
      "                    samples fall off once full)\n"
      "  --ts-out FILE     write the base seed's flight recording; JSON\n"
      "                    (deterministic \"series\" section is\n"
      "                    byte-identical at any --jobs / --shards), or\n"
      "                    CSV when FILE ends in .csv. Also attaches the\n"
      "                    recording to --trace-out as Perfetto counter\n"
      "                    tracks.\n"
      "  --help            this text\n",
      argv0);
}

// Numeric flag values are strict: the whole token must parse, only
// finite numbers pass, and a value outside the flag's range exits 2.
[[noreturn]] void BadValue(const std::string& flag, const char* text,
                           const std::string& expected) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", flag.c_str(),
               expected.c_str(), text);
  std::exit(2);
}

int IntFlag(const std::string& flag, const char* text, int lo) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < lo ||
      v > std::numeric_limits<int>::max()) {
    BadValue(flag, text, "an integer >= " + std::to_string(lo));
  }
  return static_cast<int>(v);
}

uint64_t SeedFlag(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 ||
      std::strchr(text, '-') != nullptr) {
    BadValue(flag, text, "an unsigned 64-bit integer");
  }
  return v;
}

/// A finite number in [lo, hi]; `expected` names the range in the error.
double RealFlag(const std::string& flag, const char* text, double lo,
                double hi, const char* expected) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < lo ||
      v > hi) {
    BadValue(flag, text, expected);
  }
  return v;
}

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

double PositiveFlag(const std::string& flag, const char* text) {
  const double v = RealFlag(flag, text, 0.0, kNoLimit, "a number > 0");
  if (v == 0.0) BadValue(flag, text, "a number > 0");
  return v;
}

std::optional<ProtocolKind> ParseProtocol(const std::string& name) {
  if (name == "diknn") return ProtocolKind::kDiknn;
  if (name == "kpt") return ProtocolKind::kKptKnnb;
  if (name == "peertree") return ProtocolKind::kPeerTree;
  if (name == "flooding") return ProtocolKind::kFlooding;
  if (name == "centralized") return ProtocolKind::kCentralized;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.runs = 3;
  bool csv = false;
  std::string trace_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string ts_out_path;
  std::optional<double> trace_sample;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };

    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else if (arg == "--protocol") {
      const auto kind = ParseProtocol(next_value());
      if (!kind) {
        std::fprintf(stderr, "unknown protocol\n");
        return 2;
      }
      config.protocol = *kind;
    } else if (arg == "--k") {
      config.k = IntFlag(arg, next_value(), 1);
    } else if (arg == "--runs") {
      config.runs = IntFlag(arg, next_value(), 1);
    } else if (arg == "--jobs") {
      config.jobs = IntFlag(arg, next_value(), 1);
    } else if (arg == "--shards") {
      config.shards = IntFlag(arg, next_value(), 1);
    } else if (arg == "--windowed") {
      config.force_windowed = true;
    } else if (arg == "--duration") {
      config.duration = PositiveFlag(arg, next_value());
    } else if (arg == "--seed") {
      config.base_seed = SeedFlag(arg, next_value());
    } else if (arg == "--interval") {
      config.query_interval_mean = PositiveFlag(arg, next_value());
    } else if (arg == "--nodes") {
      config.network.node_count = IntFlag(arg, next_value(), 1);
    } else if (arg == "--field") {
      const double side = PositiveFlag(arg, next_value());
      config.network.field = Rect::Field(side, side);
    } else if (arg == "--speed") {
      config.network.max_speed =
          RealFlag(arg, next_value(), 0.0, kNoLimit, "a number >= 0");
    } else if (arg == "--range") {
      config.network.radio_range_m = PositiveFlag(arg, next_value());
    } else if (arg == "--loss") {
      config.network.loss_rate =
          RealFlag(arg, next_value(), 0.0, 1.0, "a number in [0, 1]");
    } else if (arg == "--placement") {
      const std::string name = next_value();
      if (name == "uniform") {
        config.network.placement = PlacementKind::kUniform;
      } else if (name == "grid") {
        config.network.placement = PlacementKind::kGrid;
      } else if (name == "clustered") {
        config.network.placement = PlacementKind::kClustered;
      } else {
        std::fprintf(stderr, "unknown placement\n");
        return 2;
      }
    } else if (arg == "--mobility") {
      const std::string name = next_value();
      if (name == "rwp") {
        config.network.mobility = MobilityKind::kRandomWaypoint;
      } else if (name == "static") {
        config.network.mobility = MobilityKind::kStatic;
      } else if (name == "group") {
        config.network.mobility = MobilityKind::kGroup;
      } else {
        std::fprintf(stderr, "unknown mobility\n");
        return 2;
      }
    } else if (arg == "--sectors") {
      config.diknn.num_sectors = IntFlag(arg, next_value(), 1);
    } else if (arg == "--no-rendezvous") {
      config.diknn.rendezvous = false;
    } else if (arg == "--gain") {
      config.diknn.assurance_gain =
          RealFlag(arg, next_value(), 0.0, 1.0, "a number in [0, 1]");
      config.diknn.mobility_assurance = config.diknn.assurance_gain > 0;
    } else if (arg == "--workload") {
      std::string error;
      const auto spec = WorkloadSpec::Parse(next_value(), &error);
      if (!spec) {
        std::fprintf(stderr, "bad --workload spec: %s\n", error.c_str());
        return 2;
      }
      config.workload = *spec;
    } else if (arg == "--faults") {
      std::string error;
      const auto plan = FaultPlan::Parse(next_value(), &error);
      if (!plan) {
        std::fprintf(stderr, "bad --faults spec: %s\n", error.c_str());
        return 2;
      }
      config.faults = *plan;
    } else if (arg == "--audit") {
      config.audit_lifecycle = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      trace_path = next_value();
    } else if (arg == "--trace-out") {
      trace_out_path = next_value();
    } else if (arg == "--trace-sample") {
      trace_sample =
          RealFlag(arg, next_value(), 0.0, 1.0, "a number in [0, 1]");
    } else if (arg == "--metrics-out") {
      metrics_out_path = next_value();
    } else if (arg == "--ts-interval") {
      config.ts_interval =
          RealFlag(arg, next_value(), 0.0, kNoLimit, "a number >= 0");
    } else if (arg == "--ts-capacity") {
      config.ts_capacity = IntFlag(arg, next_value(), 0);
    } else if (arg == "--ts-out") {
      ts_out_path = next_value();
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (trace_sample.has_value()) {
    config.trace_sample = *trace_sample;
  } else if (!trace_out_path.empty()) {
    config.trace_sample = 1.0;  // A trace file without a rate means "all".
  }

  if (csv) {
    std::printf(
        "protocol,k,seed,queries,timeouts,latency_s,energy_j,pre_acc,"
        "post_acc,avg_degree,faults,lc_checks,lc_violations,leaked\n");
  } else {
    std::printf("%s: k=%d, %d run(s) x %.0fs, %d nodes on %.0fx%.0f m, "
                "mu_max=%.0f m/s\n",
                ProtocolName(config.protocol), config.k, config.runs,
                config.duration, config.network.node_count,
                config.network.field.Width(),
                config.network.field.Height(), config.network.max_speed);
  }

  if (!trace_path.empty()) {
    // Frame-log run: drive the stack manually with a Tracer on the
    // channel. It samples no queries (rate 0) and only keeps the frame
    // log, which records every transmission. Declared first, so it
    // outlives the channel that points at it.
    Tracer frame_log(0.0);
    ProtocolStack stack(config, config.base_seed);
    stack.network().channel().set_tracer(&frame_log);
    // One representative query instead of the whole workload.
    stack.network().Warmup(config.warmup);
    bool done = false;
    stack.protocol().IssueQuery(
        0, stack.network().config().field.Center(), config.k,
        [&](const KnnResult&) { done = true; });
    Simulator& sim = stack.network().sim();
    while (!done && sim.Now() < 30.0) sim.RunUntil(sim.Now() + 0.25);
    const TraceSink sink(frame_log.Snapshot());
    std::ofstream out(trace_path);
    sink.WriteFrameCsv(out);
    std::fprintf(stderr, "wrote %zu frames to %s\n",
                 sink.data().frames.size(), trace_path.c_str());
  }

  if (!trace_out_path.empty()) {
    // Traced run of the base seed: export the query span trees as Chrome
    // trace-event JSON (loadable in Perfetto / chrome://tracing) and
    // print the slowest query's critical-path summary.
    TraceData trace;
    const RunMetrics traced = RunOnce(config, config.base_seed, nullptr,
                                      &trace);
    TraceSink sink(std::move(trace));
    // Flight-recorder series ride along as Perfetto counter tracks.
    sink.set_timeseries(&traced.ts);
    std::ofstream out(trace_out_path);
    sink.WriteChromeTrace(out);
    std::fprintf(stderr, "wrote %llu spans across %zu traced queries to %s\n",
                 static_cast<unsigned long long>(sink.data().stats.spans),
                 sink.critical_paths().size(), trace_out_path.c_str());
    if (!sink.critical_paths().empty()) {
      std::fprintf(stderr, "slowest: %s\n",
                   TraceSink::FormatCriticalPath(sink.critical_paths().front())
                       .c_str());
    }
  }

  const std::vector<RunMetrics> runs = RunExperimentRuns(config);
  if (!runs.empty() &&
      runs.front().shards_effective < runs.front().shards_requested) {
    std::fprintf(stderr,
                 "warning: --shards %d clamped to %d by the partition "
                 "geometry (field too small for that many tiles)\n",
                 runs.front().shards_requested,
                 runs.front().shards_effective);
  }
  for (int i = 0; i < static_cast<int>(runs.size()); ++i) {
    const uint64_t seed = config.base_seed + i;
    const RunMetrics& m = runs[i];
    if (csv) {
      std::printf("%s,%d,%llu,%d,%d,%.4f,%.4f,%.4f,%.4f,%.2f,"
                  "%llu,%llu,%llu,%llu\n",
                  ProtocolName(config.protocol), config.k,
                  static_cast<unsigned long long>(seed), m.queries,
                  m.timeouts, m.avg_latency, m.energy_joules,
                  m.avg_pre_accuracy, m.avg_post_accuracy, m.average_degree,
                  static_cast<unsigned long long>(m.faults_injected),
                  static_cast<unsigned long long>(m.lifecycle_checks),
                  static_cast<unsigned long long>(m.lifecycle_violations),
                  static_cast<unsigned long long>(m.leaked_entries));
    } else {
      std::printf("  run %d (seed %llu): %d queries, latency %.2fs, "
                  "energy %.3fJ, pre %.2f, post %.2f%s\n",
                  i, static_cast<unsigned long long>(seed), m.queries,
                  m.avg_latency, m.energy_joules, m.avg_pre_accuracy,
                  m.avg_post_accuracy,
                  m.timeouts > 0 ? " (timeouts)" : "");
      if (!config.faults.empty() || config.audit_lifecycle) {
        std::printf("    faults=%llu lifecycle: checks=%llu violations=%llu "
                    "leaked=%llu\n",
                    static_cast<unsigned long long>(m.faults_injected),
                    static_cast<unsigned long long>(m.lifecycle_checks),
                    static_cast<unsigned long long>(m.lifecycle_violations),
                    static_cast<unsigned long long>(m.leaked_entries));
      }
    }
    std::fflush(stdout);
  }

  if (!csv || !metrics_out_path.empty() || !ts_out_path.empty()) {
    const ExperimentMetrics agg = AggregateRuns(runs);
    if (!csv) {
      std::printf("mean: latency %.2f±%.2fs, energy %.3fJ, pre %.2f, "
                  "post %.2f, timeout rate %.0f%%\n",
                  agg.latency.mean, agg.latency.stddev, agg.energy.mean,
                  agg.pre_accuracy.mean, agg.post_accuracy.mean,
                  100 * agg.timeout_rate.mean);
      if (config.workload.has_value()) {
        std::printf("slo:  %s\n", agg.slo.Format().c_str());
      }
    }
    if (!metrics_out_path.empty()) {
      std::ofstream out(metrics_out_path);
      out << agg.obs.ToJson() << '\n';
      std::fprintf(stderr, "wrote merged metrics of %d run(s) to %s\n",
                   agg.runs, metrics_out_path.c_str());
    }
    if (!ts_out_path.empty()) {
      // The base seed's recording (runs[0]); independent of --jobs.
      std::ofstream out(ts_out_path);
      const bool as_csv =
          ts_out_path.size() >= 4 &&
          ts_out_path.compare(ts_out_path.size() - 4, 4, ".csv") == 0;
      if (as_csv) {
        agg.ts.WriteCsv(out);
      } else {
        agg.ts.WriteJson(out);
      }
      size_t samples = 0;
      for (const TimeSeries& s : agg.ts.series()) samples += s.size();
      std::fprintf(stderr, "wrote %zu series (%zu samples) to %s\n",
                   agg.ts.series().size(), samples, ts_out_path.c_str());
      if (agg.ts.series().empty()) {
        std::fprintf(stderr,
                     "note: flight recorder was disabled; pass "
                     "--ts-interval or a timeseries@ workload clause\n");
      }
    }
  }
  return 0;
}
