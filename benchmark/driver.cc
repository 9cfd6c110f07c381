// diknn_benchmark — one workload of the repository benchmark, measured
// from outside the program.
//
//   diknn_benchmark --workload NAME --seed S (--seconds T | --reps K)
//                   [--trace] [--smoke] [--trace-out FILE]
//
// The driver calls only public functions of src/harness, src/net,
// src/workload, src/psim and src/obs and times them with steady_clock.
// A run is: one check repetition (RunOnce per seed, discarded as warm-up),
// then timed repetitions — for T seconds (at least three) or exactly K —
// and, with --trace, one traced pass that attributes wall time to layers.
// Every repetition simulates the workload's whole seed set S .. S+n-1.
//
// The last line of stdout is one JSON object: per-repetition host times,
// peak RSS, the simulated-time metrics (which must repeat exactly), the
// correctness verdict, and with --trace the per-layer metrics. run.py
// turns it into medians and the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "obs/trace_sink.h"
#include "psim/engine.h"
#include "workload/query_driver.h"
#include "workload/workload_spec.h"

namespace {

using namespace diknn;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------- workloads

struct WorkloadDef {
  const char* name;
  bool psim;              ///< src/psim windowed engine instead of serial.
  const char* spec;       ///< WorkloadSpec (serial workloads).
  double duration;        ///< Measured simulated seconds per seed.
  double smoke_duration;  ///< Same, under --smoke.
  int seeds;              ///< Seeds per repetition (1 under --smoke).
  double tail_pct;        ///< Highest percentile with >= 10 samples beyond.
};

// The served stack shared by served_hotspot and uniform_itineraries is
// bench_workload's served template; see benchmark/README.md for why each
// workload exists and which layers it loads.
constexpr WorkloadDef kWorkloads[] = {
    {"paper_5_1", false, "arrival@kind=poisson,rate=0.25;k@lo=40", 100.0,
     20.0, 5, 90.0},
    {"served_hotspot", false,
     "arrival@kind=poisson,rate=16;k@lo=20;"
     "space@kind=hotspot,n=4,sigma=6,skew=1.5;deadline@s=4;"
     "admit@inflight=256,queue=64,shed=1;"
     "cache@ttl=8,cells=4;coalesce@window=2.5,kslack=10",
     60.0, 10.0, 3, 99.0},
    {"uniform_itineraries", false,
     "arrival@kind=poisson,rate=2;k@lo=20;deadline@s=4;"
     "admit@inflight=64,queue=32,shed=1;"
     "cache@ttl=8,cells=4;coalesce@window=2.5,kslack=10",
     60.0, 10.0, 3, 95.0},
    {"substrate_100k", true, nullptr, 1.0, 0.25, 1, 0.0},
};

constexpr int kPsimNodes = 100000;
constexpr int kPsimShards = 2;
constexpr int kOracleCallsPerSeed = 2000;
// A 200-node ProtocolStack builds in well under a millisecond, so one
// construction per seed is mostly timer and page-fault noise; set-up is
// the median of this many constructions.
constexpr int kSetupSamples = 5;
// QueryDriver seed derivation used by RunOnce (harness/experiment.cc); the
// check that the layer path reproduces RunOnce's SloReport guards it.
constexpr uint64_t kDriverSeedMul = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kDriverSeedAdd = 17;

// Per-layer metrics of the traced pass, `<module>.<metric>`, with units.
// Every workload reports every name; a layer the workload does not run
// reports 0. BENCHMARK.json's per_layer list mirrors this table.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayers[] = {
    {"sim.events_fired", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.peak_live", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.frames_sent", "count"},
    {"net.receptions_attempted", "count"},
    {"net.candidates_scanned", "count"},
    {"net.us_per_frame", "us"},
    {"net.substrate_s", "s"},
    {"net.frame_pool_reuse_ratio", "ratio"},
    {"net.allocs", "count"},
    {"net.receptions_collided", "count"},
    {"net.delivery_ratio", "ratio"},
    {"net.mac_tx_attempts", "count"},
    {"net.mac_retries", "count"},
    {"net.mac_csma_failures", "count"},
    {"net.mac_send_failures", "count"},
    {"routing.sends", "count"},
    {"routing.greedy_hops", "count"},
    {"routing.perimeter_hops", "count"},
    {"routing.link_failures", "count"},
    {"routing.ttl_expired", "count"},
    {"routing.delivery_ratio", "ratio"},
    {"knn.itineraries", "count"},
    {"knn.completed", "count"},
    {"knn.timeouts", "count"},
    {"knn.qnode_hops", "count"},
    {"knn.probes_sent", "count"},
    {"knn.replies_sent", "count"},
    {"knn.sector_result_ratio", "ratio"},
    {"knn.voids_encountered", "count"},
    {"knn.rendezvous_sent", "count"},
    {"knn.stale_branches_dropped", "count"},
    {"query_plane.wall_s", "s"},
    {"query_plane.share", "ratio"},
    {"serving.cache_hits", "count"},
    {"serving.cache_misses", "count"},
    {"serving.cache_insertions", "count"},
    {"serving.cache_expired", "count"},
    {"serving.hit_ratio", "ratio"},
    {"serving.coalesced", "count"},
    {"serving.shed", "count"},
    {"serving.network_share", "ratio"},
    {"workload.issued", "count"},
    {"workload.completed", "count"},
    {"workload.deadline_missed", "count"},
    {"workload.rejected", "count"},
    {"workload.timed_out", "count"},
    {"workload.peak_inflight", "count"},
    {"workload.oracle_us_per_call", "us"},
    {"workload.oracle_s", "s"},
    {"phase.queue_s", "s"},
    {"phase.route_s", "s"},
    {"phase.forwarding_s", "s"},
    {"phase.collection_s", "s"},
    {"phase.reply_route_s", "s"},
    {"phase.sink_wait_s", "s"},
    {"phase.tail_queue_s", "s"},
    {"phase.tail_route_s", "s"},
    {"phase.tail_forwarding_s", "s"},
    {"phase.tail_collection_s", "s"},
    {"phase.tail_reply_route_s", "s"},
    {"phase.tail_sink_wait_s", "s"},
    {"psim.windows", "count"},
    {"psim.busy_sum_s", "s"},
    {"psim.busy_max_s", "s"},
    {"psim.barrier_wait_share", "ratio"},
    {"psim.speedup_model", "ratio"},
    {"psim.boundary_frames", "count"},
    {"psim.migrations", "count"},
    {"psim.neighbor_updates", "count"},
    {"psim.candidates_scanned", "count"},
    {"psim.mailbox_hwm", "count"},
    {"psim.steady_allocs", "count"},
    {"setup.psim_world_s", "s"},
    {"setup.stack_s", "s"},
    {"setup.warmup_s", "s"},
    {"trace.wall_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans", "count"},
};

// ------------------------------------------------------------------- output

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered name -> (value, unit) list, printed as
/// {"name": {"value": v, "unit": "u"}, ...}.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(entries_[i].name) + ": {\"value\": " +
             Num(entries_[i].value) + ", \"unit\": " +
             Quote(entries_[i].unit) + "}";
    }
    return out + "}";
  }
  /// Exact text of every value, for the repeat-exactly check.
  std::string Fingerprint() const {
    std::string out;
    for (const Entry& e : entries_) out += e.name + "=" + Num(e.value) + ";";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Per-layer values keyed by a kLayers name; names never set print as 0.
class Layers {
 public:
  void Set(const std::string& name, double value) {
    for (const LayerDef& d : kLayers) {
      if (name == d.name) {
        values_[name] = value;
        return;
      }
    }
    std::fprintf(stderr, "diknn_benchmark: unknown layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  std::string Json() const {
    if (values_.empty()) return "{}";
    MetricList all;
    for (const LayerDef& d : kLayers) {
      const auto it = values_.find(d.name);
      all.Add(d.name, it == values_.end() ? 0.0 : it->second, d.unit);
    }
    return all.Json();
  }

 private:
  std::map<std::string, double> values_;
};

/// Bench-side spans around the calls into each layer, written as Chrome
/// trace-event JSON (complete events on one thread, nested by time).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, const std::string& args = "{}") {
    spans_.push_back({name, Micros(start), Micros(end) - Micros(start), args});
  }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": \"diknn_benchmark\"}}";
    for (const Span& s : spans_) {
      out << ",\n{\"name\": " << Quote(s.name)
          << ", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
             "\"ts\": "
          << Num(s.ts_us) << ", \"dur\": " << Num(s.dur_us)
          << ", \"args\": " << s.args << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
    std::string args;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Correctness verdict: every failed check is recorded with its reason;
/// `failed_runs` counts seed runs with at least one failed check.
struct Verdict {
  std::vector<std::string> errors;
  uint64_t runs = 0;
  uint64_t failed_runs = 0;

  /// Records one seed run and the outcome of its checks.
  void Run(const std::vector<std::string>& run_errors) {
    ++runs;
    if (run_errors.empty()) return;
    ++failed_runs;
    for (const std::string& e : run_errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ options

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 0.0;
  int reps = 0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "diknn_benchmark: %s\nusage: diknn_benchmark --workload NAME "
               "--seed S (--seconds T | --reps K) [--trace] [--smoke] "
               "[--trace-out FILE]\nworkloads:",
               why);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const WorkloadDef& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) Usage(("unknown workload " + name).c_str());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--reps") {
      opt.reps = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload == nullptr) Usage("--workload is required");
  if ((opt.seconds > 0.0) == (opt.reps > 0)) {
    Usage("give exactly one of --seconds T > 0 or --reps K > 0");
  }
  return opt;
}

/// Repetition schedule: exactly K, or as many as fit in T seconds (at
/// least 3): another one starts only if it should end within T, judged by
/// the previous one's length.
class RepClock {
 public:
  explicit RepClock(const Options& opt)
      : opt_(opt), start_(Clock::now()), last_(start_) {}
  bool More(int done) {
    const auto now = Clock::now();
    const double last_s = Seconds(now - last_);
    last_ = now;
    if (opt_.reps > 0) return done < opt_.reps;
    return done < 3 || Seconds(now - start_) + last_s <= opt_.seconds;
  }

 private:
  const Options& opt_;
  Clock::time_point start_;
  Clock::time_point last_;
};

/// Host speed gauge. Wall time on a shared host drifts by tens of
/// percent within seconds (another tenant on the same physical core), so
/// every timed call is bracketed by two short slices of fixed reference
/// work, and its time is scaled to what it would have taken with the
/// slices at their nominal time. The reference work is frozen in the
/// benchmark and independent of the program under test: a binary-heap
/// event loop moving points on a grid and scanning each one's 3x3 cell
/// neighbourhood, the same kind of work as the simulator's event queue and
/// channel grid.
class HostGauge {
 public:
  /// Seconds one slice takes on the x86-64 VM the benchmark was
  /// calibrated on, when no other tenant competes for the core (the fast
  /// mode of its bimodal distribution).
  static constexpr double kNominalSliceS = 0.01;

  HostGauge() : gen_(12345), cells_(kCells * kCells) {
    for (int i = 0; i < kPoints; ++i) {
      pos_.push_back({Uniform(0.0, kSide), Uniform(0.0, kSide)});
      cell_of_.push_back(CellIndex(pos_[i]));
      cells_[cell_of_[i]].push_back(i);
      heap_.emplace_back(Uniform(0.0, 1.0), i);
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Runs one slice of reference work; returns its wall seconds.
  double Slice() {
    const auto t0 = Clock::now();
    for (int e = 0; e < kSliceEvents; ++e) Step();
    return Seconds(Clock::now() - t0);
  }

  /// One slice on this gauge and one on `other` at the same time, on two
  /// threads; returns the slower one's seconds (the pair is as fast as its
  /// slower core, like two shards meeting at every window barrier).
  double PairSlice(HostGauge* other) {
    double other_s = 0.0;
    std::thread peer([other, &other_s]() { other_s = other->Slice(); });
    const double mine = Slice();
    peer.join();
    return std::max(mine, other_s);
  }

  /// Scale factor for a call bracketed by slices of `before` and `after`
  /// seconds: nominal / measured host speed.
  static double Scale(double before, double after) {
    return 2.0 * kNominalSliceS / (before + after);
  }

  uint64_t checksum() const { return found_; }

 private:
  static constexpr int kPoints = 20000;
  static constexpr int kSliceEvents = 30000;
  static constexpr double kSide = 2000.0, kRange = 20.0;
  static constexpr int kCells = static_cast<int>(kSide / kRange);
  struct Pt {
    double x, y;
  };

  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  static int CellIndex(const Pt& p) {
    const int cx = std::clamp(static_cast<int>(p.x / kRange), 0, kCells - 1);
    const int cy = std::clamp(static_cast<int>(p.y / kRange), 0, kCells - 1);
    return cy * kCells + cx;
  }
  void Step() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [t, i] = heap_.back();
    heap_.pop_back();
    Pt& p = pos_[i];
    p.x = std::clamp(p.x + Uniform(-2.0, 2.0), 0.0, kSide - 1e-9);
    p.y = std::clamp(p.y + Uniform(-2.0, 2.0), 0.0, kSide - 1e-9);
    const int c = CellIndex(p);
    if (c != cell_of_[i]) {
      std::erase(cells_[cell_of_[i]], i);
      cells_[c].push_back(i);
      cell_of_[i] = c;
    }
    const int cx = c % kCells, cy = c / kCells;
    for (int y = std::max(0, cy - 1); y <= std::min(kCells - 1, cy + 1); ++y) {
      for (int x = std::max(0, cx - 1); x <= std::min(kCells - 1, cx + 1);
           ++x) {
        for (int j : cells_[y * kCells + x]) {
          const double dx = pos_[j].x - p.x, dy = pos_[j].y - p.y;
          found_ += dx * dx + dy * dy <= kRange * kRange;
        }
      }
    }
    heap_.emplace_back(t - std::log(1.0 - Uniform(0.0, 1.0)), i);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  std::mt19937_64 gen_;
  std::vector<Pt> pos_;
  std::vector<int> cell_of_;
  std::vector<std::vector<int>> cells_;
  std::vector<std::pair<double, int>> heap_;
  uint64_t found_ = 0;
};

/// Host-time series, one value per timed repetition.
struct HostSeries {
  std::vector<std::pair<std::string, std::string>> names;  // name, unit
  std::map<std::string, std::vector<double>> values;

  void Add(const std::string& name, const char* unit, double v) {
    if (!values.contains(name)) names.emplace_back(name, unit);
    values[name].push_back(v);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(names[i].first) + ": {\"unit\": " +
             Quote(names[i].second) + ", \"values\": [";
      const std::vector<double>& v = values.at(names[i].first);
      for (size_t j = 0; j < v.size(); ++j) {
        out += (j > 0 ? ", " : "") + Num(v[j]);
      }
      out += "]}";
    }
    return out + "}";
  }
};

struct Result {
  HostSeries host;
  MetricList sim;
  std::string fingerprint;
  Layers layers;
  Verdict verdict;
  uint64_t gauge_checksum = 0;  ///< Keeps the gauge's work observable.
};

// --------------------------------------------------------- serial workloads

ExperimentConfig SerialConfig(const WorkloadDef& w, bool smoke) {
  ExperimentConfig config;  // Section 5.1 defaults: 200 nodes, RWP 10 m/s.
  config.protocol = ProtocolKind::kDiknn;
  config.duration = smoke ? w.smoke_duration : w.duration;
  std::string error;
  config.workload = WorkloadSpec::Parse(w.spec, &error);
  if (!config.workload.has_value()) {
    std::fprintf(stderr, "diknn_benchmark: bad spec for %s: %s\n", w.name,
                 error.c_str());
    std::exit(2);
  }
  return config;
}

/// One seed driven layer by layer, as RunOnce drives it.
struct LayerRun {
  SloReport slo;
  std::vector<WorkloadQueryRecord> records;
  double energy_j = 0.0;
  ChannelStats channel;
  double setup_s = 0.0;   ///< ProtocolStack construction.
  double warmup_s = 0.0;  ///< Network::Warmup.
  double drive_s = 0.0;   ///< QueryDriver construction + Run.
};

LayerRun RunLayers(const ExperimentConfig& config, uint64_t seed,
                   SpanLog* log) {
  LayerRun run;
  const auto t0 = Clock::now();
  ProtocolStack stack(config, seed);
  const auto t1 = Clock::now();
  Network& net = stack.network();
  net.Warmup(config.warmup);
  const auto t2 = Clock::now();
  const double query0 = net.TotalEnergy(EnergyCategory::kQuery);
  const double maint0 = net.TotalEnergy(EnergyCategory::kMaintenance);
  QueryDriver driver(&net, &stack.gpsr(), &stack.protocol(), *config.workload,
                     seed * kDriverSeedMul + kDriverSeedAdd,
                     config.static_sink ? 0 : kInvalidNodeId);
  run.slo = driver.Run(config.duration, config.drain);
  const auto t3 = Clock::now();
  run.energy_j = (net.TotalEnergy(EnergyCategory::kQuery) - query0) +
                 (net.TotalEnergy(EnergyCategory::kMaintenance) - maint0);
  run.records = driver.records();
  run.channel = net.channel().stats();
  run.setup_s = Seconds(t1 - t0);
  run.warmup_s = Seconds(t2 - t1);
  run.drive_s = Seconds(t3 - t2);
  if (log != nullptr) {
    log->Add("ProtocolStack", t0, t1);
    log->Add("Network::Warmup", t1, t2);
    log->Add("QueryDriver::Run", t2, t3,
             "{\"issued\": " + std::to_string(run.slo.issued) + "}");
  }
  return run;
}

/// What RunOnce reported for one seed; the layer path must reproduce it.
struct Reference {
  std::string slo_json;
  double energy_j = 0.0;
};

std::vector<std::string> CheckRunOnce(const RunMetrics& m, uint64_t seed) {
  std::vector<std::string> errors;
  const std::string at = " (seed " + std::to_string(seed) + ")";
  if (!m.slo.Consistent()) errors.push_back("RunOnce SloReport inconsistent" + at);
  if (m.slo.issued == 0 || m.slo.completed == 0) {
    errors.push_back("RunOnce completed no queries" + at);
  }
  const uint64_t allocs = m.obs.CounterValue("net.allocs");
  if (allocs != 0) {
    errors.push_back("RunOnce net.allocs = " + std::to_string(allocs) + at);
  }
  return errors;
}

std::vector<std::string> CheckLayerRun(const LayerRun& run,
                                       const Reference& ref, uint64_t seed) {
  std::vector<std::string> errors;
  const std::string at = " (seed " + std::to_string(seed) + ")";
  if (!run.slo.Consistent()) errors.push_back("SloReport inconsistent" + at);
  if (run.slo.ToJson() != ref.slo_json) {
    errors.push_back("layer path SloReport differs from RunOnce's" + at);
  }
  if (run.energy_j != ref.energy_j) {
    errors.push_back("layer path energy differs from RunOnce's" + at);
  }
  return errors;
}

/// Simulated-time metrics of one repetition (all seeds).
MetricList SimMetrics(const WorkloadDef& w, const std::vector<LayerRun>& runs) {
  SloReport merged;
  std::vector<double> latencies;
  double accuracy_sum = 0.0, energy = 0.0;
  uint64_t scored = 0, frames = 0, attempted = 0, delivered = 0;
  for (const LayerRun& run : runs) {
    merged.Merge(run.slo);
    for (const WorkloadQueryRecord& r : run.records) {
      if (r.outcome == QueryOutcome::kCompleted ||
          r.outcome == QueryOutcome::kDeadlineMissed) {
        latencies.push_back(r.latency);
      }
      if (r.post_accuracy >= 0.0) {
        accuracy_sum += r.post_accuracy;
        ++scored;
      }
    }
    energy += run.energy_j;
    frames += run.channel.frames_sent;
    attempted += run.channel.receptions_attempted;
    delivered += run.channel.receptions_delivered;
  }
  const uint64_t failed =
      merged.timed_out + merged.rejected + merged.deadline_missed;
  const std::vector<double> pct = Percentiles(latencies, {50.0, w.tail_pct});
  char tail_name[32];
  std::snprintf(tail_name, sizeof(tail_name), "latency_p%g_s", w.tail_pct);

  MetricList m;
  m.Add("goodput_qps", merged.GoodputQps(), "1/s");
  m.Add("latency_p50_s", pct[0], "s");
  m.Add(tail_name, pct[1], "s");
  m.Add("latency_samples", static_cast<double>(latencies.size()), "count");
  m.Add("post_accuracy", Ratio(accuracy_sum, static_cast<double>(scored)),
        "ratio");
  m.Add("energy_j_per_query",
        Ratio(energy, static_cast<double>(merged.issued)), "J");
  m.Add("fail_rate",
        Ratio(static_cast<double>(failed), static_cast<double>(merged.issued)),
        "ratio");
  m.Add("queries_issued", static_cast<double>(merged.issued), "count");
  m.Add("queries_failed", static_cast<double>(failed), "count");
  m.Add("frames", static_cast<double>(frames), "count");
  m.Add("delivery_ratio",
        Ratio(static_cast<double>(delivered), static_cast<double>(attempted)),
        "ratio");
  return m;
}

/// Mean of each critical-path phase over `paths`.
void AddPhases(const std::vector<CriticalPath>& paths, const char* prefix,
               Layers* out) {
  double q = 0, r = 0, f = 0, c = 0, rr = 0, sw = 0;
  for (const CriticalPath& p : paths) {
    q += p.queue;
    r += p.route;
    f += p.forwarding;
    c += p.collection;
    rr += p.reply_route;
    sw += p.sink_wait;
  }
  const double n = static_cast<double>(paths.size());
  const std::string pre = prefix;
  out->Set(pre + "queue_s", Ratio(q, n));
  out->Set(pre + "route_s", Ratio(r, n));
  out->Set(pre + "forwarding_s", Ratio(f, n));
  out->Set(pre + "collection_s", Ratio(c, n));
  out->Set(pre + "reply_route_s", Ratio(rr, n));
  out->Set(pre + "sink_wait_s", Ratio(sw, n));
}

/// The traced pass: each layer called and timed on its own, per seed.
void TracedPass(const ExperimentConfig& config,
                const std::vector<uint64_t>& seeds, Result* result,
                SpanLog* log) {
  double setup = 0, warmup = 0, drive = 0, twin_wall = 0, oracle_wall = 0;
  double plain_wall = 0, traced_wall = 0;
  uint64_t twin_events = 0, twin_frames = 0, oracle_calls = 0, scored = 0;
  uint64_t program_spans = 0;
  std::vector<LayerRun> runs;
  std::vector<CriticalPath> paths;
  MetricsSnapshot obs;
  const double drive_span = config.duration + config.drain;
  const double total_span = config.warmup + drive_span;

  for (uint64_t seed : seeds) {
    const auto s0 = Clock::now();
    std::vector<std::string> errors;
    const std::string at = " (seed " + std::to_string(seed) + ")";

    LayerRun run = RunLayers(config, seed, log);
    setup += run.setup_s;
    warmup += run.warmup_s;
    drive += run.drive_s;
    for (const WorkloadQueryRecord& r : run.records) {
      if (r.pre_accuracy >= 0.0) ++scored;
    }

    // Substrate twin: the same seed's network with no queries, run over
    // the same simulated span, prices the beacon substrate alone.
    auto t0 = Clock::now();
    ProtocolStack twin(config, seed);
    auto t1 = Clock::now();
    twin.network().Warmup(total_span);
    auto t2 = Clock::now();
    log->Add("twin ProtocolStack", t0, t1);
    log->Add("twin Network::Warmup", t1, t2);
    twin_wall += Seconds(t2 - t1);
    twin_events += twin.network().sim().engine_stats().events_fired;
    twin_frames += twin.network().channel().stats().frames_sent;

    // Ground-truth oracle: the driver scores each KNN query with one
    // TrueKnn call at issue and one at resolution.
    Rng rng(seed * kDriverSeedMul + 99);
    size_t found = 0;
    t0 = Clock::now();
    for (int i = 0; i < kOracleCallsPerSeed; ++i) {
      found += twin.network()
                   .TrueKnn(rng.PointInRect(config.network.field),
                            config.workload->k_lo)
                   .size();
    }
    t1 = Clock::now();
    log->Add("oracle TrueKnn", t0, t1,
             "{\"calls\": " + std::to_string(kOracleCallsPerSeed) + "}");
    oracle_wall += Seconds(t1 - t0);
    oracle_calls += kOracleCallsPerSeed;
    if (found == 0) errors.push_back("oracle returned no neighbors" + at);

    t0 = Clock::now();
    const RunMetrics plain = RunOnce(config, seed);
    t1 = Clock::now();
    ExperimentConfig traced_config = config;
    traced_config.trace_sample = 1.0;
    TraceData trace;
    const RunMetrics traced = RunOnce(traced_config, seed, nullptr, &trace);
    t2 = Clock::now();
    log->Add("RunOnce", t0, t1);
    log->Add("RunOnce trace_sample=1", t1, t2,
             "{\"spans\": " + std::to_string(trace.stats.spans) + "}");
    plain_wall += Seconds(t1 - t0);
    traced_wall += Seconds(t2 - t1);
    program_spans += trace.stats.spans;

    std::vector<std::string> once_errors = CheckRunOnce(plain, seed);
    errors.insert(errors.end(), once_errors.begin(), once_errors.end());
    const Reference ref{plain.slo.ToJson(), plain.energy_joules};
    std::vector<std::string> run_errors = CheckLayerRun(run, ref, seed);
    errors.insert(errors.end(), run_errors.begin(), run_errors.end());
    if (traced.slo.ToJson() != ref.slo_json) {
      errors.push_back("traced RunOnce SloReport differs from untraced" + at);
    }
    result->verdict.Run(errors);

    TraceSink sink(std::move(trace));
    paths.insert(paths.end(), sink.critical_paths().begin(),
                 sink.critical_paths().end());
    obs.Merge(plain.obs);
    runs.push_back(std::move(run));
    log->Add("seed " + std::to_string(seed), s0, Clock::now());
  }

  // Wall-time decomposition of the drive (everything after warm-up).
  // query_plane.wall_s is the remainder, so the three parts sum to
  // wall_s - setup.warmup_s exactly; it can come out negative when the
  // query plane is a small share of a noisy run.
  const double wall = warmup + drive;
  const double substrate = twin_wall * drive_span / total_span;
  const double oracle_per_call = Ratio(oracle_wall, oracle_calls);
  const double oracle = oracle_per_call * 2.0 * static_cast<double>(scored);
  const double query_plane = drive - substrate - oracle;

  SloReport slo;
  ChannelStats ch;
  for (const LayerRun& run : runs) {
    slo.Merge(run.slo);
    ch.frames_sent += run.channel.frames_sent;
    ch.receptions_attempted += run.channel.receptions_attempted;
    ch.receptions_delivered += run.channel.receptions_delivered;
    ch.receptions_collided += run.channel.receptions_collided;
    ch.candidates_scanned += run.channel.candidates_scanned;
  }
  auto counter = [&obs](const char* name) {
    return static_cast<double>(obs.CounterValue(name));
  };
  const double itineraries = counter("diknn.queries_issued");
  const ServingCounters& sc = slo.serving;

  Layers& m = result->layers;
  m.Set("sim.events_fired", counter("engine.events_fired"));
  m.Set("sim.events_cancelled", counter("engine.events_cancelled"));
  m.Set("sim.peak_live", obs.GaugeValue("engine.peak_live"));
  m.Set("sim.ns_per_event", 1e9 * Ratio(twin_wall, twin_events));
  m.Set("net.frames_sent", static_cast<double>(ch.frames_sent));
  m.Set("net.receptions_attempted",
        static_cast<double>(ch.receptions_attempted));
  m.Set("net.candidates_scanned", static_cast<double>(ch.candidates_scanned));
  m.Set("net.us_per_frame", 1e6 * Ratio(twin_wall, twin_frames));
  m.Set("net.substrate_s", substrate);
  m.Set("net.frame_pool_reuse_ratio",
        Ratio(counter("pool.frame_reuses"),
              counter("pool.frame_reuses") + counter("pool.frame_fresh")));
  m.Set("net.allocs", counter("net.allocs"));
  m.Set("net.receptions_collided",
        static_cast<double>(ch.receptions_collided));
  m.Set("net.delivery_ratio",
        Ratio(static_cast<double>(ch.receptions_delivered),
              static_cast<double>(ch.receptions_attempted)));
  m.Set("net.mac_tx_attempts", counter("mac.tx_attempts"));
  m.Set("net.mac_retries", counter("mac.retries"));
  m.Set("net.mac_csma_failures", counter("mac.csma_failures"));
  m.Set("net.mac_send_failures", counter("mac.send_failures"));
  m.Set("routing.sends", counter("gpsr.sends"));
  m.Set("routing.greedy_hops", counter("gpsr.greedy_hops"));
  m.Set("routing.perimeter_hops", counter("gpsr.perimeter_hops"));
  m.Set("routing.link_failures", counter("gpsr.link_failures"));
  m.Set("routing.ttl_expired", counter("gpsr.ttl_expired"));
  m.Set("routing.delivery_ratio",
        Ratio(counter("gpsr.deliveries"), counter("gpsr.sends")));
  m.Set("knn.itineraries", itineraries);
  m.Set("knn.completed", counter("diknn.queries_completed"));
  m.Set("knn.timeouts", counter("diknn.timeouts"));
  m.Set("knn.qnode_hops", counter("diknn.qnode_hops"));
  m.Set("knn.probes_sent", counter("diknn.probes_sent"));
  m.Set("knn.replies_sent", counter("diknn.replies_sent"));
  m.Set("knn.sector_result_ratio",
        Ratio(counter("diknn.sector_results_received"),
              counter("diknn.sector_results_sent")));
  m.Set("knn.voids_encountered", counter("diknn.voids_encountered"));
  m.Set("knn.rendezvous_sent", counter("diknn.rendezvous_sent"));
  m.Set("knn.stale_branches_dropped", counter("diknn.stale_branches_dropped"));
  m.Set("query_plane.wall_s", query_plane);
  m.Set("query_plane.share", Ratio(query_plane, wall));
  m.Set("serving.cache_hits", static_cast<double>(sc.cache_hits));
  m.Set("serving.cache_misses", static_cast<double>(sc.cache_misses));
  m.Set("serving.cache_insertions", static_cast<double>(sc.cache_insertions));
  m.Set("serving.cache_expired", static_cast<double>(sc.cache_expired));
  m.Set("serving.hit_ratio",
        Ratio(static_cast<double>(sc.cache_hits),
              static_cast<double>(sc.cache_hits + sc.cache_misses)));
  m.Set("serving.coalesced", static_cast<double>(sc.coalesced));
  m.Set("serving.shed", static_cast<double>(sc.shed));
  m.Set("serving.network_share",
        Ratio(itineraries, static_cast<double>(slo.issued)));
  m.Set("workload.issued", static_cast<double>(slo.issued));
  m.Set("workload.completed", static_cast<double>(slo.completed));
  m.Set("workload.deadline_missed", static_cast<double>(slo.deadline_missed));
  m.Set("workload.rejected", static_cast<double>(slo.rejected));
  m.Set("workload.timed_out", static_cast<double>(slo.timed_out));
  m.Set("workload.peak_inflight", static_cast<double>(slo.peak_inflight));
  m.Set("workload.oracle_us_per_call", 1e6 * oracle_per_call);
  m.Set("workload.oracle_s", oracle);

  std::sort(paths.begin(), paths.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              return a.total > b.total;
            });
  const size_t tail_n =
      paths.empty() ? 0 : std::max<size_t>(1, (paths.size() + 19) / 20);
  AddPhases(paths, "phase.", &m);
  AddPhases(std::vector<CriticalPath>(paths.begin(), paths.begin() + tail_n),
            "phase.tail_", &m);

  m.Set("setup.stack_s", setup);
  m.Set("setup.warmup_s", warmup);
  m.Set("trace.wall_s", wall);
  m.Set("obs.trace_overhead", Ratio(traced_wall, plain_wall) - 1.0);
  m.Set("obs.spans", static_cast<double>(program_spans + log->size()));
}

Result RunSerial(const WorkloadDef& w, const Options& opt, SpanLog* log) {
  Result result;
  const ExperimentConfig config = SerialConfig(w, opt.smoke);
  const int n = opt.smoke ? 1 : w.seeds;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(opt.seed + i);

  // Check repetition (also the warm-up): RunOnce is the reference every
  // layer-path repetition must reproduce.
  std::map<uint64_t, Reference> refs;
  for (uint64_t seed : seeds) {
    const RunMetrics m = RunOnce(config, seed);
    result.verdict.Run(CheckRunOnce(m, seed));
    refs[seed] = {m.slo.ToJson(), m.energy_joules};
  }

  std::optional<std::string> first_fingerprint;
  HostGauge gauge;
  RepClock clock(opt);
  for (int rep = 0; clock.More(rep); ++rep) {
    std::vector<LayerRun> runs;
    std::vector<std::vector<std::string>> errors;
    double setup = 0, wall = 0, raw_setup = 0, raw_wall = 0;
    for (uint64_t seed : seeds) {
      const double before = gauge.Slice();
      runs.push_back(RunLayers(config, seed, nullptr));
      std::vector<double> builds = {runs.back().setup_s};
      while (builds.size() < kSetupSamples) {
        const auto t0 = Clock::now();
        const ProtocolStack stack(config, seed);
        builds.push_back(Seconds(Clock::now() - t0));
      }
      const double scale = HostGauge::Scale(before, gauge.Slice());
      const LayerRun& run = runs.back();
      raw_setup += Median(builds);
      raw_wall += run.warmup_s + run.drive_s;
      setup += scale * Median(builds);
      wall += scale * (run.warmup_s + run.drive_s);
      errors.push_back(CheckLayerRun(run, refs[seed], seed));
    }
    MetricList sim = SimMetrics(w, runs);
    const std::string fp = sim.Fingerprint();
    if (!first_fingerprint.has_value()) {
      first_fingerprint = fp;
      result.sim = sim;
      result.fingerprint = fp;
    } else if (fp != *first_fingerprint) {
      errors.back().push_back(
          "simulated-time metrics differ between repetitions");
    }
    for (const std::vector<std::string>& e : errors) result.verdict.Run(e);
    uint64_t issued = 0, frames = 0;
    for (const LayerRun& run : runs) {
      issued += run.slo.issued;
      frames += run.channel.frames_sent;
    }
    result.host.Add("wall_s", "s", wall);
    result.host.Add("setup_s", "s", setup);
    result.host.Add("frames_per_s", "1/s", Ratio(frames, wall));
    result.host.Add("queries_per_s", "1/s", Ratio(issued, wall));
    result.host.Add("raw_wall_s", "s", raw_wall);
    result.host.Add("raw_setup_s", "s", raw_setup);
    result.host.Add("host_scale", "ratio", wall / raw_wall);
  }

  result.gauge_checksum = gauge.checksum();
  if (opt.trace) TracedPass(config, seeds, &result, log);
  return result;
}

// ----------------------------------------------------------- psim workload

PsimConfig SubstrateConfig(const WorkloadDef& w, const Options& opt) {
  const NetworkConfig net;  // Section 5.1 radio, MAC and mobility.
  PsimConfig pc;
  pc.node_count = kPsimNodes;
  // Section 5.1 density: scale the 200-node 115 m field to N nodes.
  const double side = 115.0 * std::sqrt(kPsimNodes / 200.0);
  pc.field = Rect::Field(side, side);
  pc.radio_range_m = net.radio_range_m;
  pc.bit_rate_bps = net.bit_rate_bps;
  pc.loss_rate = net.loss_rate;
  pc.beacon_interval = net.beacon_interval;
  pc.neighbor_timeout = net.neighbor_timeout;
  pc.max_speed = net.max_speed;
  pc.mac = net.mac;
  pc.shards = kPsimShards;
  pc.duration = opt.smoke ? w.smoke_duration : w.duration;
  pc.seed = opt.seed;
  return pc;
}

std::vector<std::string> CheckPsim(const PsimResult& r) {
  std::vector<std::string> errors;
  const PsimStats& t = r.totals;
  if (r.shards != kPsimShards) {
    errors.push_back("psim ran " + std::to_string(r.shards) + " shards, not " +
                     std::to_string(kPsimShards));
  }
  if (t.frames_sent == 0) errors.push_back("psim sent no frames");
  if (t.audit_mismatches != 0) errors.push_back("psim audit mismatches");
  if (t.boundary_frames != t.foreign_frames) {
    errors.push_back("psim boundary_frames != foreign_frames");
  }
  if (t.migrations_out != t.migrations_in) {
    errors.push_back("psim migrations_out != migrations_in");
  }
  for (const PsimStats& s : r.shard_stats) {
    if (s.steady_allocs != 0) {
      errors.push_back("psim steady-state allocations in a shard");
      break;
    }
  }
  return errors;
}

MetricList PsimSimMetrics(const PsimResult& r) {
  const PsimStats& t = r.totals;
  MetricList m;
  m.Add("frames", static_cast<double>(t.frames_sent), "count");
  m.Add("delivery_ratio",
        Ratio(static_cast<double>(t.receptions_delivered),
              static_cast<double>(t.receptions_attempted)),
        "ratio");
  m.Add("neighbor_updates", static_cast<double>(t.neighbor_updates), "count");
  m.Add("average_degree", r.average_degree, "count");
  return m;
}

void PsimLayers(const PsimResult& r, double setup_s, double wall_s,
                double untraced_median, size_t spans, Layers* m) {
  const PsimStats& t = r.totals;
  double busy_sum = 0, busy_max = 0, wait_share = 0;
  uint64_t hwm = 0, steady = 0;
  for (const PsimStats& s : r.shard_stats) {
    busy_sum += s.busy_s;
    busy_max = std::max(busy_max, s.busy_s);
    wait_share = std::max(
        wait_share, Ratio(s.barrier_wait_s, s.busy_s + s.barrier_wait_s));
    hwm = std::max(hwm, s.frames_mailbox_hwm);
    steady += s.steady_allocs;
  }
  const double frames = static_cast<double>(t.frames_sent);
  const double events = static_cast<double>(r.engine.events_fired);
  m->Set("sim.events_fired", events);
  m->Set("sim.events_cancelled", static_cast<double>(r.engine.events_cancelled));
  m->Set("sim.peak_live", static_cast<double>(r.engine.peak_live));
  m->Set("sim.ns_per_event", 1e9 * Ratio(wall_s, events));
  m->Set("net.frames_sent", frames);
  m->Set("net.receptions_attempted",
         static_cast<double>(t.receptions_attempted));
  m->Set("net.candidates_scanned", static_cast<double>(t.candidates_scanned));
  m->Set("net.us_per_frame", 1e6 * Ratio(wall_s, frames));
  m->Set("net.substrate_s", wall_s);
  m->Set("net.allocs", static_cast<double>(steady));
  m->Set("net.receptions_collided",
         static_cast<double>(t.receptions_collided));
  m->Set("net.delivery_ratio",
         Ratio(static_cast<double>(t.receptions_delivered),
               static_cast<double>(t.receptions_attempted)));
  // The MAC, routing, DIKNN, serving and workload layers do not run here;
  // their metrics stay 0.
  m->Set("net.mac_csma_failures", static_cast<double>(t.csma_failures));
  m->Set("psim.windows", static_cast<double>(r.windows));
  m->Set("psim.busy_sum_s", busy_sum);
  m->Set("psim.busy_max_s", busy_max);
  m->Set("psim.barrier_wait_share", wait_share);
  m->Set("psim.speedup_model",
         busy_max > 0.0 ? busy_sum / busy_max : static_cast<double>(r.shards));
  m->Set("psim.boundary_frames", static_cast<double>(t.boundary_frames));
  m->Set("psim.migrations", static_cast<double>(t.migrations_out));
  m->Set("psim.neighbor_updates", static_cast<double>(t.neighbor_updates));
  m->Set("psim.candidates_scanned", static_cast<double>(t.candidates_scanned));
  m->Set("psim.mailbox_hwm", static_cast<double>(hwm));
  m->Set("psim.steady_allocs", static_cast<double>(steady));
  m->Set("setup.psim_world_s", setup_s);
  m->Set("trace.wall_s", wall_s);
  m->Set("obs.trace_overhead", Ratio(wall_s, untraced_median) - 1.0);
  m->Set("obs.spans", static_cast<double>(spans));
}

Result RunSubstrate(const WorkloadDef& w, const Options& opt, SpanLog* log) {
  Result result;
  const PsimConfig pc = SubstrateConfig(w, opt);
  std::optional<std::string> first_fingerprint;

  // One repetition: build the engine (set-up), run it, check it.
  auto rep = [&](SpanLog* spans, double* setup_s, double* wall_s) {
    const auto t0 = Clock::now();
    PsimEngine engine(pc);
    const auto t1 = Clock::now();
    PsimResult r = engine.Run();
    const auto t2 = Clock::now();
    *setup_s = Seconds(t1 - t0);
    *wall_s = Seconds(t2 - t1);
    if (spans != nullptr) {
      spans->Add("PsimEngine::PsimEngine", t0, t1);
      spans->Add("PsimEngine::Run", t1, t2,
                 "{\"shards\": " + std::to_string(r.shards) + "}");
    }
    std::vector<std::string> errors = CheckPsim(r);
    MetricList sim = PsimSimMetrics(r);
    const std::string fp = sim.Fingerprint() + InvariantObsJson(r.obs);
    if (!first_fingerprint.has_value()) {
      first_fingerprint = fp;
      result.sim = sim;
      result.fingerprint = sim.Fingerprint();
    } else if (fp != *first_fingerprint) {
      errors.push_back("simulated-time metrics differ between repetitions");
    }
    result.verdict.Run(errors);
    return r;
  };

  double setup = 0, wall = 0;
  rep(nullptr, &setup, &wall);  // Check repetition, discarded as warm-up.
  HostGauge gauge, peer;
  RepClock clock(opt);
  for (int i = 0; clock.More(i); ++i) {
    const double before = gauge.PairSlice(&peer);
    const PsimResult r = rep(nullptr, &setup, &wall);
    const double scale = HostGauge::Scale(before, gauge.PairSlice(&peer));
    result.host.Add("wall_s", "s", scale * wall);
    result.host.Add("setup_s", "s", scale * setup);
    result.host.Add("frames_per_s", "1/s",
                    Ratio(static_cast<double>(r.totals.frames_sent),
                          scale * wall));
    result.host.Add("raw_wall_s", "s", wall);
    result.host.Add("raw_setup_s", "s", setup);
    result.host.Add("host_scale", "ratio", scale);
  }
  result.gauge_checksum = gauge.checksum() + peer.checksum();
  if (opt.trace) {
    const double untraced = Median(result.host.values["raw_wall_s"]);
    const auto s0 = Clock::now();
    const PsimResult r = rep(log, &setup, &wall);
    log->Add("seed " + std::to_string(opt.seed), s0, Clock::now());
    PsimLayers(r, setup, wall, untraced, log->size(), &result.layers);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const WorkloadDef& w = *opt.workload;
  SpanLog log(Clock::now());
  Result result = w.psim ? RunSubstrate(w, opt, &log) : RunSerial(w, opt, &log);

  if (opt.trace && !opt.trace_out.empty() && !log.Write(opt.trace_out)) {
    result.verdict.Run({"cannot write trace file " + opt.trace_out});
  }

  std::string errors = "[";
  for (size_t i = 0; i < result.verdict.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + Quote(result.verdict.errors[i]);
  }
  errors += "]";
  MetricList once;
  once.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seeds_per_rep\": %d, "
      "\"smoke\": %s, \"build_type\": %s, \"correct\": %s, \"runs\": %llu, "
      "\"failed_runs\": %llu, \"errors\": %s, \"host\": %s, \"once\": %s, "
      "\"sim\": %s, \"sim_fingerprint\": %s, \"layers\": %s, "
      "\"gauge_checksum\": %llu}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.smoke ? 1 : w.seeds, opt.smoke ? "true" : "false",
      Quote(DIKNN_BUILD_TYPE).c_str(),
      result.verdict.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(result.verdict.runs),
      static_cast<unsigned long long>(result.verdict.failed_runs),
      errors.c_str(), result.host.Json().c_str(), once.Json().c_str(),
      result.sim.Json().c_str(), Quote(result.fingerprint).c_str(),
      result.layers.Json().c_str(),
      static_cast<unsigned long long>(result.gauge_checksum));
  return result.verdict.errors.empty() ? 0 : 1;
}
