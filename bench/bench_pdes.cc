// bench_pdes — parallel-engine scalability benchmark.
//
// Two sweeps over the conservative PDES substrate (src/psim):
//
//   substrate — beacon traffic only, node count x shard count at constant
//   field density; reports wall-clock frames/sec, the measured speedup
//   over the first shard count, and a load-balance model of it.
//
//   query plane — a served DIKNN workload (GPSR forwarding, itinerary
//   traversal, the sink front end) over the same partitions; reports
//   goodput and the same two speedups. On every run the
//   partition-invariant traffic counters — and, on query rows, the full
//   SloReport — are checked against the 1-shard anchor of the same N; a
//   silent determinism break fails the bench.
//
// Each N runs its shard counts in kRounds interleaved rounds (1, 2, 4,
// 8, 1, 2, 4, 8, ...), so a slow minute of the host lands on every shard
// count alike. A row reports its wall time as median [q1, q3] over the
// rounds, and `speedup_measured` as median [q1, q3] over the rounds of
// wall(first shard count) / wall(this row), each ratio taken within one
// round.
//
// Load imbalance is attributed, not inferred: every row carries a
// per-shard block with the busy clock, the barrier-wait share
// (wait / (busy + wait)), and the mailbox high-water marks, so "shard 3
// is the straggler because its inboxes run deep" is readable straight
// from BENCH_pdes.json.
//
// Machine-parallelism caveat, reported rather than hidden: the JSON
// carries host_cpus, and when the host has fewer cores than shards the
// measured speedup cannot rise with them. The `speedup_model` column —
// busy_sum / busy_max over the per-shard busy clocks, i.e. the speedup a
// perfectly parallel host would see given the actual load balance — is a
// model, labelled so in the header and the JSON.
//
// Env knobs:
//   DIKNN_BENCH_PDES_SIZES   comma-separated N (default 2000,20000,100000)
//   DIKNN_BENCH_PDES_QUERY_SIZES  N for the query sweep (default 2000,8000)
//   DIKNN_BENCH_PDES_SHARDS  comma-separated shard counts (default 1,2,4,8)
//   DIKNN_BENCH_PDES_DURATION  simulated seconds per run (default 0.5)
//   DIKNN_PDES_SMOKE=1       run the small shard-equivalence smoke only
//                            (used by scripts/check_all.sh); exits
//                            nonzero on any counter mismatch.
//   DIKNN_PDES_QUERY_SMOKE=1 run the query-plane smoke only: a served
//                            hotspot workload at --shards 4 must produce
//                            goodput > 0, cache hits > 0 and coalesced
//                            followers > 0, with SloReport and counters
//                            byte-equal to --shards 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "psim/engine.h"

#include "bench_common.h"

namespace {

using namespace diknn;

// Interleaved rounds per N in the full sweeps.
constexpr int kRounds = 5;

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// Median and quartiles, the quartiles by the rule of Python's
// statistics.quantiles (its default, exclusive method), which
// benchmark/run.py uses too.
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  Quartiles q;
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  const auto cut = [&v, n](int i) {
    const int j = std::clamp(i * (n + 1) / 4, 1, n - 1);
    const int delta = i * (n + 1) - j * 4;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

std::vector<int> IntListFromEnv(const char* name,
                                std::vector<int> defaults) {
  const char* env = std::getenv(name);
  if (env == nullptr) return defaults;
  std::vector<int> values;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) values.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return values.empty() ? defaults : values;
}

double DurationFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_PDES_DURATION");
  const double d = env != nullptr ? std::atof(env) : 0.0;
  return d > 0.0 ? d : 0.5;
}

PsimConfig ConfigFor(int nodes, int shards, double duration) {
  PsimConfig config;
  config.node_count = nodes;
  // Constant density: scale the paper's 115x115 m / 200-node field.
  const double side = 115.0 * std::sqrt(nodes / 200.0);
  config.field = Rect::Field(side, side);
  config.shards = shards;
  config.duration = duration;
  config.seed = 99;
  return config;
}

// The query sweep's served workload: concurrent mixed-class queries with
// deadlines, admission control, caching, and coalescing — the serving
// stack end to end, all of it crossing shard boundaries.
constexpr char kQuerySpec[] =
    "arrival@kind=poisson,rate=120;mix@knn=50,window=25,aggregate=25;"
    "k@lo=4,hi=12;deadline@s=1.0;admit@inflight=48,queue=32;"
    "cache@ttl=0.4;coalesce@window=0.15";

// The query smoke's variant: the same stream concentrated on two
// hotspots, so the sink's cache and coalescer are certain to fire.
constexpr char kHotspotQuerySpec[] =
    "arrival@kind=poisson,rate=120;mix@knn=50,window=25,aggregate=25;"
    "k@lo=4,hi=12;deadline@s=1.0;admit@inflight=48,queue=32;"
    "cache@ttl=0.4;coalesce@window=0.15,kslack=8;"
    "space@kind=hotspot,n=2,sigma=6";

PsimConfig QueryConfigFor(int nodes, int shards, double duration,
                          const char* spec_text = kQuerySpec) {
  PsimConfig config = ConfigFor(nodes, shards, duration);
  config.beacon_interval = 0.1;
  config.loss_rate = 0.02;
  config.query.enabled = true;
  std::string error;
  const auto spec = WorkloadSpec::Parse(spec_text, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "bench_pdes: bad query spec: %s\n",
                 error.c_str());
    std::exit(1);
  }
  config.query.spec = *spec;
  config.query.sink = 0;
  config.query.warmup = 0.2;
  config.query.horizon = duration;
  return config;
}

struct ShardDetail {
  double busy_s = 0.0;
  double barrier_wait_s = 0.0;
  double wait_share = 0.0;  ///< wait / (busy + wait); imbalance signal.
  uint64_t frames_hwm = 0;
  uint64_t queries_hwm = 0;
  uint64_t migrations_hwm = 0;
};

struct Row {
  int nodes = 0;
  int shards_requested = 0;
  int shards = 0;
  uint64_t windows = 0;
  uint64_t frames = 0;
  double wall_s = 0.0;  ///< One run's; Summarize: the rounds' median.
  double wall_q1_s = 0.0;
  double wall_q3_s = 0.0;
  double frames_per_s = 0.0;
  /// wall(first shard count) / wall(this row), within each round.
  Quartiles speedup_measured;
  double busy_sum_s = 0.0;
  double busy_max_s = 0.0;
  double speedup_model = 0.0;
  double efficiency_model = 0.0;
  double max_wait_share = 0.0;
  uint64_t max_queries_hwm = 0;
  std::vector<ShardDetail> per_shard;
  // Query-sweep extras (zero on substrate rows).
  uint64_t issued = 0;
  uint64_t completed = 0;
  double goodput_qps = 0.0;
  uint64_t qp_hops = 0;
  bool invariant_ok = true;
};

void FillShardDetail(const PsimResult& r, Row* row) {
  for (const PsimStats& s : r.shard_stats) {
    ShardDetail d;
    d.busy_s = s.busy_s;
    d.barrier_wait_s = s.barrier_wait_s;
    const double denom = s.busy_s + s.barrier_wait_s;
    d.wait_share = denom > 0.0 ? s.barrier_wait_s / denom : 0.0;
    d.frames_hwm = s.frames_mailbox_hwm;
    d.queries_hwm = s.queries_mailbox_hwm;
    d.migrations_hwm = s.migrations_mailbox_hwm;
    row->busy_sum_s += s.busy_s;
    row->busy_max_s = std::max(row->busy_max_s, s.busy_s);
    row->max_wait_share = std::max(row->max_wait_share, d.wait_share);
    row->max_queries_hwm = std::max(row->max_queries_hwm, d.queries_hwm);
    row->per_shard.push_back(d);
  }
  row->speedup_model = row->busy_max_s > 0.0
                           ? row->busy_sum_s / row->busy_max_s
                           : static_cast<double>(r.shards);
  row->efficiency_model = row->speedup_model / r.shards;
}

Row RunOne(const PsimConfig& config,
           const PsimStats::Invariants* anchor,
           const std::string* slo_anchor,
           PsimStats::Invariants* invariants_out,
           std::string* slo_out) {
  const PsimResult r = RunPsim(config);
  *invariants_out = r.totals.InvariantCounters();
  *slo_out = r.query_ran ? r.slo.ToJson() : std::string();
  Row row;
  row.nodes = config.node_count;
  row.shards_requested = config.shards;
  row.shards = r.shards;
  row.windows = r.windows;
  row.frames = r.totals.frames_sent;
  row.wall_s = r.wall_s;
  row.frames_per_s =
      static_cast<double>(row.frames) / std::max(r.wall_s, 1e-9);
  FillShardDetail(r, &row);
  if (r.query_ran) {
    row.issued = r.slo.issued;
    row.completed = r.slo.completed;
    row.goodput_qps = r.slo.GoodputQps();
    row.qp_hops = r.totals.qp.hops;
  }
  row.invariant_ok =
      (anchor == nullptr || r.totals.InvariantCounters() == *anchor) &&
      (slo_anchor == nullptr || *slo_out == *slo_anchor);
  return row;
}

void WriteRows(std::ofstream& out, const std::vector<Row>& rows,
               bool query) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"nodes\": " << r.nodes << ", \"shards\": " << r.shards
        << ", \"shards_requested\": " << r.shards_requested
        << ", \"windows\": " << r.windows << ", \"frames\": " << r.frames
        << ", \"wall_s\": " << r.wall_s
        << ", \"wall_s_q1\": " << r.wall_q1_s
        << ", \"wall_s_q3\": " << r.wall_q3_s
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"speedup_measured\": " << r.speedup_measured.median
        << ", \"speedup_measured_q1\": " << r.speedup_measured.q1
        << ", \"speedup_measured_q3\": " << r.speedup_measured.q3
        << ", \"busy_sum_s\": " << r.busy_sum_s
        << ", \"busy_max_s\": " << r.busy_max_s
        << ", \"speedup_model\": " << r.speedup_model
        << ", \"efficiency_model\": " << r.efficiency_model;
    if (query) {
      out << ", \"issued\": " << r.issued
          << ", \"completed\": " << r.completed
          << ", \"goodput_qps\": " << r.goodput_qps
          << ", \"qp_hops\": " << r.qp_hops;
    }
    out << ", \"invariant_ok\": " << (r.invariant_ok ? "true" : "false")
        << ",\n     \"per_shard\": [";
    for (size_t s = 0; s < r.per_shard.size(); ++s) {
      const ShardDetail& d = r.per_shard[s];
      out << (s > 0 ? ", " : "") << "{\"busy_s\": " << d.busy_s
          << ", \"barrier_wait_s\": " << d.barrier_wait_s
          << ", \"wait_share\": " << d.wait_share
          << ", \"frames_hwm\": " << d.frames_hwm
          << ", \"queries_hwm\": " << d.queries_hwm
          << ", \"migrations_hwm\": " << d.migrations_hwm << "}";
    }
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void WriteJson(const std::vector<Row>& rows,
               const std::vector<Row>& query_rows, bool all_ok) {
  std::ofstream out("BENCH_pdes.json");
  out << "{\n  \"bench\": \"pdes\",\n  " << bench::ProvenanceJson()
      << ",\n  \"equivalent\": " << (all_ok ? "true" : "false")
      << ",\n  \"rounds\": " << kRounds
      << ",\n  \"columns\": {\"wall_s\": \"median over the interleaved "
         "rounds, with wall_s_q1 and wall_s_q3\", \"speedup_measured\": "
         "\"measured: median [q1, q3] over the rounds of wall(first shard "
         "count) / wall(this row)\", \"speedup_model\": \"model, not "
         "measured: busy_sum_s / busy_max_s of the median-wall round\"}"
      << ",\n  \"results\": [\n";
  WriteRows(out, rows, /*query=*/false);
  out << "  ],\n  \"query_results\": [\n";
  WriteRows(out, query_rows, /*query=*/true);
  out << "  ]\n}\n";
}

// Shard-equivalence smoke for scripts/check_all.sh: a short dense run on
// a field wide enough for four genuine strips; any drift in the
// partition-invariant counters or the exchange balance is a hard fail.
int RunSmoke() {
  PsimConfig config;
  config.node_count = 768;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;
  config.loss_rate = 0.05;
  config.duration = 0.6;
  config.seed = 42;

  config.shards = 1;
  const PsimResult anchor = RunPsim(config);
  if (anchor.totals.frames_sent == 0) {
    std::fprintf(stderr, "PDES smoke: anchor run sent no frames\n");
    return 1;
  }
  for (int shards : {2, 4}) {
    config.shards = shards;
    const PsimResult r = RunPsim(config);
    if (r.shards != shards) {
      std::fprintf(stderr, "PDES smoke: wanted %d shards, got %d\n",
                   shards, r.shards);
      return 1;
    }
    if (!(r.totals.InvariantCounters() ==
          anchor.totals.InvariantCounters())) {
      std::fprintf(stderr,
                   "PDES smoke: traffic counters diverged at %d shards "
                   "(frames %llu vs %llu, delivered %llu vs %llu)\n",
                   shards,
                   static_cast<unsigned long long>(r.totals.frames_sent),
                   static_cast<unsigned long long>(
                       anchor.totals.frames_sent),
                   static_cast<unsigned long long>(
                       r.totals.receptions_delivered),
                   static_cast<unsigned long long>(
                       anchor.totals.receptions_delivered));
      return 1;
    }
    if (r.totals.boundary_frames != r.totals.foreign_frames ||
        r.totals.migrations_out != r.totals.migrations_in ||
        r.totals.audit_mismatches != 0) {
      std::fprintf(stderr,
                   "PDES smoke: exchange imbalance at %d shards\n",
                   shards);
      return 1;
    }
    bool allocs_clean = true;
    for (const PsimStats& s : r.shard_stats) {
      allocs_clean = allocs_clean && s.steady_allocs == 0;
    }
    if (!allocs_clean) {
      std::fprintf(stderr,
                   "PDES smoke: steady-state allocations at %d shards\n",
                   shards);
      return 1;
    }
  }
  std::printf("PDES smoke: shards {1,2,4} equivalent, %llu frames\n",
              static_cast<unsigned long long>(anchor.totals.frames_sent));
  return 0;
}

// Query-plane smoke (DIKNN_PDES_QUERY_SMOKE=1): a served DIKNN workload
// at --shards 4 must complete queries (goodput > 0), hit the sink's cache
// and coalesce, with the SloReport and every partition-invariant counter
// byte-equal to --shards 1.
int RunQuerySmoke() {
  PsimConfig config = QueryConfigFor(768, 1, 1.2, kHotspotQuerySpec);
  config.field = Rect::Field(560.0, 115.0);
  config.seed = 42;

  const PsimResult anchor = RunPsim(config);
  const std::string anchor_slo = anchor.slo.ToJson();
  if (anchor.slo.issued == 0 || anchor.slo.completed == 0) {
    std::fprintf(stderr,
                 "PDES query smoke: anchor completed no queries "
                 "(issued %llu)\n",
                 static_cast<unsigned long long>(anchor.slo.issued));
    return 1;
  }

  config.shards = 4;
  const PsimResult r = RunPsim(config);
  if (r.shards != 4) {
    std::fprintf(stderr, "PDES query smoke: wanted 4 shards, got %d\n",
                 r.shards);
    return 1;
  }
  if (!(r.slo.GoodputQps() > 0.0)) {
    std::fprintf(stderr, "PDES query smoke: zero goodput at 4 shards\n");
    return 1;
  }
  if (r.slo.ToJson() != anchor_slo) {
    std::fprintf(stderr,
                 "PDES query smoke: SloReport diverged at 4 shards\n%s\n"
                 "vs anchor\n%s\n",
                 r.slo.ToJson().c_str(), anchor_slo.c_str());
    return 1;
  }
  if (!(r.totals.InvariantCounters() ==
        anchor.totals.InvariantCounters())) {
    std::fprintf(stderr,
                 "PDES query smoke: traffic counters diverged at 4 "
                 "shards (qp hops %llu vs %llu)\n",
                 static_cast<unsigned long long>(r.totals.qp.hops),
                 static_cast<unsigned long long>(anchor.totals.qp.hops));
    return 1;
  }
  // The shared serving front end really runs sharded: the sink answers
  // from its cache and coalesces, and both tallies match the 1-shard run.
  const ServingCounters& sc = r.slo.serving;
  if (sc.cache_hits == 0 || sc.coalesced == 0 ||
      sc.cache_hits != anchor.slo.serving.cache_hits ||
      sc.coalesced != anchor.slo.serving.coalesced) {
    std::fprintf(stderr,
                 "PDES query smoke: serving idle or diverged at 4 shards "
                 "(cache_hits %llu vs %llu, coalesced %llu vs %llu)\n",
                 static_cast<unsigned long long>(sc.cache_hits),
                 static_cast<unsigned long long>(
                     anchor.slo.serving.cache_hits),
                 static_cast<unsigned long long>(sc.coalesced),
                 static_cast<unsigned long long>(
                     anchor.slo.serving.coalesced));
    return 1;
  }
  if (r.totals.qp.boundary_frames == 0 ||
      r.totals.qp.boundary_frames != r.totals.qp.foreign_frames) {
    std::fprintf(stderr,
                 "PDES query smoke: query mailbox imbalance "
                 "(boundary %llu, foreign %llu)\n",
                 static_cast<unsigned long long>(
                     r.totals.qp.boundary_frames),
                 static_cast<unsigned long long>(
                     r.totals.qp.foreign_frames));
    return 1;
  }
  std::printf(
      "PDES query smoke: shards {1,4} equivalent, %llu queries "
      "completed, %.1f q/s goodput, %llu cache hits, %llu coalesced, "
      "%llu cross-shard query frames\n",
      static_cast<unsigned long long>(r.slo.completed),
      r.slo.GoodputQps(), static_cast<unsigned long long>(sc.cache_hits),
      static_cast<unsigned long long>(sc.coalesced),
      static_cast<unsigned long long>(r.totals.qp.boundary_frames));
  return 0;
}

// One row per shard count from its kRounds runs: the median-wall run's
// counters and shard detail, with the wall time and the measured speedup
// over the rounds (`base` holds the first shard count's runs).
Row Summarize(const std::vector<Row>& runs, const std::vector<Row>& base) {
  std::vector<double> walls;
  std::vector<double> speedups;
  for (size_t i = 0; i < runs.size(); ++i) {
    walls.push_back(runs[i].wall_s);
    speedups.push_back(base[i].wall_s / std::max(runs[i].wall_s, 1e-9));
  }
  const Quartiles wall = QuartilesOf(walls);
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  const double median_run = sorted[(sorted.size() - 1) / 2];
  Row row = *std::find_if(runs.begin(), runs.end(), [&](const Row& r) {
    return r.wall_s == median_run;
  });
  row.wall_s = wall.median;
  row.wall_q1_s = wall.q1;
  row.wall_q3_s = wall.q3;
  row.frames_per_s =
      static_cast<double>(row.frames) / std::max(wall.median, 1e-9);
  row.speedup_measured = QuartilesOf(speedups);
  row.invariant_ok = std::all_of(runs.begin(), runs.end(), [](const Row& r) {
    return r.invariant_ok;
  });
  return row;
}

std::vector<Row> Sweep(const char* name, const std::vector<int>& sizes,
                       const std::vector<int>& shard_counts,
                       double duration, bool query, bool* all_ok) {
  std::printf("--- %s sweep, %d interleaved rounds ---\n", name, kRounds);
  std::printf("%-7s %-6s %9s %10s %26s %23s %8s %6s %6s %4s\n", "nodes",
              "shards", query ? "queries" : "frames", "frames/s",
              "wall s med [q1, q3]", "measured x med [q1, q3]",
              "model x", "wait%", "q-hwm", "ok");
  std::vector<Row> rows;
  for (int n : sizes) {
    // The first run of the first shard count anchors the invariant check
    // for this N; every later run must match it exactly.
    PsimStats::Invariants anchor{};
    std::string slo_anchor;
    bool have_anchor = false;
    std::vector<std::vector<Row>> runs(shard_counts.size());
    for (int round = 0; round < kRounds; ++round) {
      for (size_t s = 0; s < shard_counts.size(); ++s) {
        const int shards = shard_counts[s];
        const PsimConfig config = query
                                      ? QueryConfigFor(n, shards, duration)
                                      : ConfigFor(n, shards, duration);
        PsimStats::Invariants invariants{};
        std::string slo;
        runs[s].push_back(
            RunOne(config, have_anchor ? &anchor : nullptr,
                   have_anchor && query ? &slo_anchor : nullptr,
                   &invariants, &slo));
        if (!have_anchor) {
          anchor = invariants;
          slo_anchor = slo;
          have_anchor = true;
        }
      }
    }
    for (const std::vector<Row>& shard_runs : runs) {
      const Row row = Summarize(shard_runs, runs.front());
      *all_ok = *all_ok && row.invariant_ok;
      std::printf(
          "%-7d %-6d %9llu %10.0f %7.3f [%7.3f, %7.3f] "
          "%6.2f [%6.2f, %6.2f] %8.2f %5.1f%% %6llu %4s\n",
          row.nodes, row.shards,
          static_cast<unsigned long long>(query ? row.completed
                                                : row.frames),
          row.frames_per_s, row.wall_s, row.wall_q1_s, row.wall_q3_s,
          row.speedup_measured.median, row.speedup_measured.q1,
          row.speedup_measured.q3, row.speedup_model,
          100.0 * row.max_wait_share,
          static_cast<unsigned long long>(row.max_queries_hwm),
          row.invariant_ok ? "yes" : "NO");
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace

int main() {
  const char* smoke = std::getenv("DIKNN_PDES_SMOKE");
  if (smoke != nullptr && std::strcmp(smoke, "1") == 0) {
    return RunSmoke();
  }
  const char* query_smoke = std::getenv("DIKNN_PDES_QUERY_SMOKE");
  if (query_smoke != nullptr && std::strcmp(query_smoke, "1") == 0) {
    return RunQuerySmoke();
  }

  const std::vector<int> sizes =
      IntListFromEnv("DIKNN_BENCH_PDES_SIZES", {2000, 20000, 100000});
  const std::vector<int> query_sizes =
      IntListFromEnv("DIKNN_BENCH_PDES_QUERY_SIZES", {2000, 8000});
  const std::vector<int> shard_counts =
      IntListFromEnv("DIKNN_BENCH_PDES_SHARDS", {1, 2, 4, 8});
  const double duration = DurationFromEnv();

  std::printf("=== bench_pdes: %.2f simulated s, host has %u cpus ===\n",
              duration, std::thread::hardware_concurrency());

  bool all_ok = true;
  const std::vector<Row> rows = Sweep("substrate (beacons)", sizes,
                                      shard_counts, duration,
                                      /*query=*/false, &all_ok);
  const std::vector<Row> query_rows =
      Sweep("query plane (served DIKNN workload)", query_sizes,
            shard_counts, std::max(duration, 1.0), /*query=*/true,
            &all_ok);

  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: traffic counters diverged across shard counts\n");
  }
  WriteJson(rows, query_rows, all_ok);
  std::printf("wrote BENCH_pdes.json\n");
  return all_ok ? 0 : 1;
}
