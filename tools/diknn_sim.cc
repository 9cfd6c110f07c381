// diknn_sim — command-line experiment runner.
//
// Runs a query workload (by default the paper's: Poisson query arrivals
// over a mobile sensor field) for any protocol and parameterization,
// printing a human-readable summary or CSV. The scriptable face of the
// library: everything the bench binaries sweep can be reproduced
// point-by-point from here.
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
#include <utility>

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
      "  --k N             neighbors per query: sets the default spec's\n"
      "                    k@lo=hi=N (default 40; exits 2 with --workload)\n"
      "  --runs N          seeded repetitions (default 3; paper used 20)\n"
      "  --jobs N          worker threads across repetitions (default 1;\n"
      "                    metrics are bit-identical at any job count)\n"
      "  --shards N        worker threads inside each run (default 1 =\n"
      "                    the serial engine). > 1 tiles the field\n"
      "                    (strips, or a 2-D grid on narrow fields) on\n"
      "                    the conservative parallel engine (src/psim),\n"
      "                    which runs the workload spec's query plane\n"
      "                    over the beacon substrate; SLO report and\n"
      "                    traffic counters equal at any shard count;\n"
      "                    total threads = jobs x shards. That engine\n"
      "                    runs its own DIKNN emulation on a uniform\n"
      "                    field and has no energy model or accuracy\n"
      "                    oracle (those columns print n/a). It exits 2\n"
      "                    on --protocol other than diknn, --faults,\n"
      "                    --audit, --placement other than uniform,\n"
      "                    --mobility group, --trace, --trace-out,\n"
      "                    --trace-sample, --no-rendezvous and --gain\n"
      "  --windowed        run the windowed parallel engine even at\n"
      "                    --shards 1 (the single-shard baseline for\n"
      "                    cross-shard comparisons)\n"
      "  --duration S      simulated seconds per run (default 100)\n"
      "  --seed N          base seed (default 42)\n"
      "  --interval S      mean query interval, exponential: sets the\n"
      "                    default spec's arrival rate to 1/S (default 4;\n"
      "                    exits 2 with --workload)\n"
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
      "  --workload SPEC   the queries of every run, replacing the\n"
      "                    default spec, the paper's Section 5.1 stream\n"
      "                    \"arrival@kind=poisson,rate=0.25;k@lo=40\"\n"
      "                    (which --k and --interval edit); SPEC is\n"
      "                    section@key=val,...;... (see\n"
      "                    src/workload/workload_spec.h), e.g.\n"
      "                    \"arrival@kind=poisson,rate=8;k@lo=20;\n"
      "                    deadline@s=2;admit@inflight=64,queue=16\"\n"
      "                    The text output ends with the runs' merged\n"
      "                    SLO report (goodput, p50/p95/p99, miss/reject\n"
      "                    rates).\n"
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
      "  --trace FILE      write the per-frame CSV log of one query at the\n"
      "                    field centre (first run only); its k is the\n"
      "                    spec's k@lo\n"
      "  --trace-out FILE  write a Chrome/Perfetto trace JSON of the base\n"
      "                    seed's run (query span trees + critical paths);\n"
      "                    implies --trace-sample 1 unless set explicitly\n"
      "  --trace-sample R  fraction of queries traced, 0..1 (default 0)\n"
      "  --metrics-out FILE\n"
      "                    write the merged metrics registry (counters,\n"
      "                    gauges, histograms across all runs) as JSON\n"
      "  --ts-interval S   flight-recorder sampling cadence in simulated\n"
      "                    seconds (default 0 = disabled)\n"
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

/// `fmt` applied to `value`, or "n/a" for a quantity the run never
/// measured: energy and accuracy on the windowed engine, and the mean
/// latency of a run in which no query resolved.
std::string Measured(bool measured, const char* fmt, double value) {
  if (!measured) return "n/a";
  char text[32];
  std::snprintf(text, sizeof(text), fmt, value);
  return text;
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
  bool gain_set = false;
  bool k_set = false;
  bool interval_set = false;
  bool workload_set = false;

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
      config.workload->k_lo = config.workload->k_hi =
          IntFlag(arg, next_value(), 1);
      k_set = true;
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
      config.workload->rate = 1.0 / PositiveFlag(arg, next_value());
      interval_set = true;
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
      gain_set = true;
    } else if (arg == "--workload") {
      std::string error;
      const auto spec = WorkloadSpec::Parse(next_value(), &error);
      if (!spec) {
        std::fprintf(stderr, "bad --workload spec: %s\n", error.c_str());
        return 2;
      }
      config.workload = *spec;
      workload_set = true;
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
      config.ts.interval =
          RealFlag(arg, next_value(), 0.0, kNoLimit, "a number >= 0");
    } else if (arg == "--ts-capacity") {
      config.ts.capacity = static_cast<size_t>(IntFlag(arg, next_value(), 0));
    } else if (arg == "--ts-out") {
      ts_out_path = next_value();
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // --k and --interval edit the default spec; a --workload spec replaces
  // it, so they would go unread.
  if (workload_set && (k_set || interval_set)) {
    std::fprintf(stderr,
                 "%s: a --workload run would ignore it; its queries take k "
                 "and arrival times from the spec's k@ and arrival@ "
                 "clauses\n",
                 k_set ? "--k" : "--interval");
    return 2;
  }

  // The windowed engine (src/psim) has no energy model and no
  // ground-truth oracle, so its runs measure neither energy nor accuracy.
  const bool windowed = config.shards > 1 || config.force_windowed;
  if (windowed) {
    // The windowed engine reads none of these: refuse them rather than
    // run something else under their name.
    const std::pair<bool, const char*> serial_only[] = {
        {config.protocol != ProtocolKind::kDiknn, "--protocol"},
        {!config.faults.empty(), "--faults"},
        {config.audit_lifecycle, "--audit"},
        {config.network.placement != PlacementKind::kUniform,
         "--placement"},
        {config.network.mobility == MobilityKind::kGroup, "--mobility group"},
        {!trace_path.empty(), "--trace"},
        {!trace_out_path.empty(), "--trace-out"},
        {trace_sample.has_value(), "--trace-sample"},
        {!config.diknn.rendezvous, "--no-rendezvous"},
        {gain_set, "--gain"},
    };
    bool rejected = false;
    for (const auto& [given, flag] : serial_only) {
      if (!given) continue;
      std::fprintf(stderr,
                   "%s: the windowed engine (--shards > 1, --windowed) "
                   "would ignore it; it runs its own DIKNN emulation on a "
                   "uniform field, without faults, audit or traces\n",
                   flag);
      rejected = true;
    }
    if (rejected) return 2;
  }

  if (trace_sample.has_value()) {
    config.trace_sample = *trace_sample;
  } else if (!trace_out_path.empty()) {
    config.trace_sample = 1.0;  // A trace file without a rate means "all".
  }

  // The csv k column: the spec's k when it pins one.
  const WorkloadSpec& spec = config.workload.value();
  const std::string k_column =
      spec.k_lo == spec.k_hi ? std::to_string(spec.k_lo) : "n/a";
  if (csv) {
    std::printf(
        "protocol,k,seed,queries,timeouts,latency_s,energy_j,pre_acc,"
        "post_acc,avg_degree,faults,lc_checks,lc_violations,leaked\n");
  } else {
    std::printf("%s: workload '%s', %d run(s) x %.0fs, %d nodes on "
                "%.0fx%.0f m, mu_max=%.0f m/s\n",
                ProtocolName(config.protocol), spec.ToSpec().c_str(),
                config.runs, config.duration, config.network.node_count,
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
    // One representative query, at the spec's k@lo, instead of the whole
    // workload.
    stack.network().Warmup(config.warmup);
    bool done = false;
    stack.protocol().IssueQuery(
        0, stack.network().config().field.Center(), spec.k_lo,
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
    const auto issued = static_cast<unsigned long long>(m.slo.issued);
    // A run in which no query resolved has no mean latency.
    const bool resolved = m.slo.latency.Count() > 0;
    if (csv) {
      std::printf("%s,%s,%llu,%llu,%llu,%s,%s,%s,%s,%.2f,"
                  "%llu,%llu,%llu,%llu\n",
                  ProtocolName(config.protocol), k_column.c_str(),
                  static_cast<unsigned long long>(seed), issued,
                  static_cast<unsigned long long>(m.slo.timed_out),
                  Measured(resolved, "%.4f", m.slo.latency.Mean()).c_str(),
                  Measured(!windowed, "%.4f", m.energy_joules).c_str(),
                  Measured(!windowed, "%.4f", m.avg_pre_accuracy).c_str(),
                  Measured(!windowed, "%.4f", m.avg_post_accuracy).c_str(),
                  m.average_degree,
                  static_cast<unsigned long long>(m.faults_injected),
                  static_cast<unsigned long long>(m.lifecycle_checks),
                  static_cast<unsigned long long>(m.lifecycle_violations),
                  static_cast<unsigned long long>(m.leaked_entries));
    } else {
      std::printf("  run %d (seed %llu): %llu queries, latency %s, "
                  "energy %s, pre %s, post %s%s\n",
                  i, static_cast<unsigned long long>(seed), issued,
                  Measured(resolved, "%.2fs", m.slo.latency.Mean()).c_str(),
                  Measured(!windowed, "%.3fJ", m.energy_joules).c_str(),
                  Measured(!windowed, "%.2f", m.avg_pre_accuracy).c_str(),
                  Measured(!windowed, "%.2f", m.avg_post_accuracy).c_str(),
                  m.slo.timed_out > 0 ? " (timeouts)" : "");
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
      std::string latency = "n/a";
      if (agg.latency.count > 0) {
        char text[48];
        std::snprintf(text, sizeof(text), "%.2f±%.2fs", agg.latency.mean,
                      agg.latency.stddev);
        latency = text;
      }
      std::printf("mean: latency %s, energy %s, pre %s, post %s, "
                  "timeout rate %.0f%%\n",
                  latency.c_str(),
                  Measured(!windowed, "%.3fJ", agg.energy.mean).c_str(),
                  Measured(!windowed, "%.2f", agg.pre_accuracy.mean).c_str(),
                  Measured(!windowed, "%.2f", agg.post_accuracy.mean).c_str(),
                  100 * agg.timeout_rate.mean);
      std::printf("slo:  %s\n", agg.slo.Format().c_str());
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
                     "--ts-interval\n");
      }
    }
  }
  return 0;
}
