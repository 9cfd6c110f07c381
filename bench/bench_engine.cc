// bench_engine — event-scheduler benchmark (timer wheel + overflow heap).
//
// Two stages with a deterministic operation sequence. Each stage runs
// twice in one process: the first run warms the allocator and caches and
// is the determinism reference, the second is timed and reported.
//
//   churn     A bare-EventQueue microbench replaying the simulator's
//             MAC/beacon event pattern: short tx-done events, ack timers
//             that are armed and almost always cancelled, and occasional
//             far-future query timeouts that park in the overflow tier.
//             Reports scheduler operations per second.
//
//   endtoend  A full Network with beaconing (RandomWaypoint mobility,
//             constant density) run for a fixed simulated span at
//             N in {1000, 4000}; reports wall-clock frames/sec. The two
//             runs of each size must produce identical traffic counters
//             and events_fired (the determinism contract, asserted here
//             on every run).
//
// Emits machine-readable BENCH_engine.json in the working directory so the
// perf trajectory can be tracked across PRs.
//
// Env knobs: DIKNN_BENCH_EVENTS (churn operations, default 2000000),
// DIKNN_BENCH_SIZES (comma-separated node counts), DIKNN_BENCH_SPAN
// (simulated seconds for the end-to-end stage, default 6),
// DIKNN_ENGINE_SMOKE=1 (shrink everything for a CI smoke pass).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "net/network.h"
#include "sim/event_queue.h"

#include "bench_common.h"

namespace {

using namespace diknn;

bool SmokeMode() {
  const char* env = std::getenv("DIKNN_ENGINE_SMOKE");
  return env != nullptr && env[0] == '1';
}

int OpsFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_EVENTS");
  const int ops = env != nullptr ? std::atoi(env) : 0;
  if (ops > 0) return ops;
  return SmokeMode() ? 50000 : 2000000;
}

std::vector<int> SizesFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_SIZES");
  if (env == nullptr) {
    return SmokeMode() ? std::vector<int>{250} : std::vector<int>{1000, 4000};
  }
  std::vector<int> sizes;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) sizes.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return sizes.empty() ? std::vector<int>{1000, 4000} : sizes;
}

double SpanFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_SPAN");
  const double span = env != nullptr ? std::atof(env) : 0.0;
  if (span > 0.0) return span;
  return SmokeMode() ? 1.0 : 6.0;
}

// ---------------------------------------------------------------------------
// Stage 1: event-churn microbench.

struct ChurnResult {
  uint64_t ops = 0;  ///< push + cancel + pop operations performed.
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  EngineStats stats;
};

ChurnResult RunChurn(int iterations) {
  EventQueue q;
  Rng rng(7);
  SimTime now = 0.0;
  uint64_t fired = 0;
  EventId pending_ack = 0;

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    // A data frame's tx-done lands within the next millisecond.
    q.Push(now + 0.0005 + rng.Uniform(0.0, 0.0004), [&fired] { ++fired; });
    // Re-arm the ack timer; the previous one is cancelled before it fires
    // (the dominant MAC pattern — acks almost always arrive).
    if (pending_ack != 0) q.Cancel(pending_ack);
    pending_ack = q.Push(now + 0.02, [&fired] { ++fired; });
    // Occasional far-future query timeout exercises the overflow tier.
    if (i % 64 == 0) {
      q.Push(now + 5.0 + rng.Uniform(0.0, 3.0), [&fired] { ++fired; });
    }
    SimTime t;
    q.Pop(&t)();
    now = t;
  }
  while (!q.Empty()) q.Pop(nullptr)();
  const auto stop = std::chrono::steady_clock::now();

  ChurnResult r;
  r.stats = q.stats();
  r.ops = r.stats.events_pushed + r.stats.events_fired +
          r.stats.events_cancelled;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.ops_per_s = static_cast<double>(r.ops) / std::max(r.wall_s, 1e-9);
  return r;
}

// ---------------------------------------------------------------------------
// Stage 2: end-to-end beaconing network.

struct EndResult {
  int nodes = 0;
  uint64_t frames = 0;
  double wall_s = 0.0;
  double frames_per_s = 0.0;
  EngineStats stats;
  ChannelStats channel;
};

EndResult RunEndToEnd(int node_count, double sim_span) {
  NetworkConfig config;
  config.node_count = node_count;
  // Constant density: scale the paper's 115x115 m / 200-node field.
  const double side = 115.0 * std::sqrt(node_count / 200.0);
  config.field = Rect::Field(side, side);
  config.mobility = MobilityKind::kRandomWaypoint;
  config.seed = 99;
  Network net(config);

  const auto start = std::chrono::steady_clock::now();
  net.Warmup(sim_span);  // Starts beaconing and runs the span.
  const auto stop = std::chrono::steady_clock::now();

  EndResult r;
  r.nodes = node_count;
  r.channel = net.channel().stats();
  r.frames = r.channel.frames_sent;
  r.stats = net.sim().engine_stats();
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.frames_per_s = static_cast<double>(r.frames) / std::max(r.wall_s, 1e-9);
  return r;
}

bool SameRun(const EndResult& a, const EndResult& b) {
  const ChannelStats& x = a.channel;
  const ChannelStats& y = b.channel;
  return x.frames_sent == y.frames_sent &&
         x.receptions_attempted == y.receptions_attempted &&
         x.receptions_delivered == y.receptions_delivered &&
         x.receptions_collided == y.receptions_collided &&
         x.receptions_lost == y.receptions_lost &&
         x.candidates_scanned == y.candidates_scanned &&
         x.airtime_s == y.airtime_s &&
         a.stats.events_fired == b.stats.events_fired;
}

void WriteJson(const ChurnResult& churn, const std::vector<EndResult>& end,
               bool deterministic) {
  std::ofstream out("BENCH_engine.json");
  out << "{\n  \"bench\": \"engine\",\n  " << bench::ProvenanceJson()
      << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n  \"churn\": {\"ops\": " << churn.ops
      << ", \"wall_s\": " << churn.wall_s
      << ", \"ops_per_s\": " << churn.ops_per_s
      << ", \"peak_resident\": " << churn.stats.peak_resident
      << ", \"inline_callbacks\": " << churn.stats.inline_callbacks
      << "},\n  \"endtoend\": [\n";
  for (size_t i = 0; i < end.size(); ++i) {
    const EndResult& r = end[i];
    out << "    {\"nodes\": " << r.nodes << ", \"frames\": " << r.frames
        << ", \"wall_s\": " << r.wall_s
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"events_fired\": " << r.stats.events_fired
        << ", \"wheel_scheduled\": " << r.stats.wheel_scheduled
        << ", \"overflow_scheduled\": " << r.stats.overflow_scheduled
        << ", \"peak_resident\": " << r.stats.peak_resident << "}"
        << (i + 1 < end.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  const int ops = OpsFromEnv();
  const std::vector<int> sizes = SizesFromEnv();
  const double span = SpanFromEnv();

  std::printf("=== bench_engine: churn x%d, endtoend %.1fs sim ===\n", ops,
              span);

  std::printf("--- churn microbench ---\n");
  std::printf("%14s %10s %14s\n", "ops/sec", "wall(s)", "peak_resident");
  const ChurnResult warm = RunChurn(ops);
  const ChurnResult churn = RunChurn(ops);
  bool deterministic = warm.ops == churn.ops &&
                       warm.stats.events_fired == churn.stats.events_fired;
  std::printf("%14.0f %10.3f %14llu\n", churn.ops_per_s, churn.wall_s,
              static_cast<unsigned long long>(churn.stats.peak_resident));

  std::printf("--- end-to-end beaconing ---\n");
  std::printf("%-8s %12s %10s %12s %12s\n", "nodes", "frames/sec", "wall(s)",
              "wheel-frac", "events");
  std::vector<EndResult> end;
  for (int n : sizes) {
    const EndResult warm_run = RunEndToEnd(n, span);
    const EndResult r = RunEndToEnd(n, span);
    const bool same = SameRun(warm_run, r);
    deterministic = deterministic && same;
    const uint64_t sched =
        r.stats.wheel_scheduled + r.stats.overflow_scheduled;
    std::printf("%-8d %12.0f %10.3f %12.3f %12llu%s\n", r.nodes,
                r.frames_per_s, r.wall_s,
                sched > 0 ? static_cast<double>(r.stats.wheel_scheduled) /
                                sched
                          : 0.0,
                static_cast<unsigned long long>(r.stats.events_fired),
                same ? "" : "  REPEAT DIVERGED");
    end.push_back(r);
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: two identical runs gave different traffic "
                 "counters or events_fired\n");
  }
  WriteJson(churn, end, deterministic);
  std::printf("wrote BENCH_engine.json\n");
  return deterministic ? 0 : 1;
}
