#include "psim/engine.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "net/beacon.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"

namespace diknn {

namespace {

PsimNetParams NetParamsFrom(const PsimConfig& config) {
  PsimNetParams net;
  net.field = config.field;
  net.radio_range_m = config.radio_range_m;
  net.bit_rate_bps = config.bit_rate_bps;
  net.max_speed = config.max_speed;
  net.grid_refresh_interval_s = config.grid_refresh_interval_s;
  net.backoff_slot_s = config.mac.backoff_slot_s;
  net.max_frame_bytes = kMacHeaderBytes + kBeaconBodyBytes;
  return net;
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

namespace {

/// Metrics whose value legitimately depends on how the field was
/// partitioned: per-shard rows, exchange traffic, scheduler internals,
/// and allocation tallies (capacity growth differs per thread). The
/// "psim.shard" prefix also covers the psim.shards / shards_requested
/// gauges, which by construction differ between the compared runs.
bool PartitionDependentMetric(const std::string& name) {
  static constexpr const char* kPrefixes[] = {
      "psim.shard",
      "engine.",
      "net.alloc",
  };
  static constexpr const char* kExact[] = {
      "psim.boundary_frames", "psim.foreign_frames",
      "psim.migrations_in",   "psim.migrations_out",
      "psim.sweeps",          "psim.windows",
      "psim.audit_probes",    "psim.audit_mismatches",
      "qp.boundary_frames",   "qp.foreign_frames",
      "qp.remails",           "qp.state_migrations",
  };
  for (const char* prefix : kPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  for (const char* exact : kExact) {
    if (name == exact) return true;
  }
  return false;
}

}  // namespace

std::string InvariantObsJson(const MetricsSnapshot& snapshot) {
  MetricsSnapshot filtered;
  for (const MetricsSnapshot::Counter& c : snapshot.counters) {
    if (!PartitionDependentMetric(c.name)) filtered.counters.push_back(c);
  }
  for (const MetricsSnapshot::Gauge& g : snapshot.gauges) {
    if (!PartitionDependentMetric(g.name)) filtered.gauges.push_back(g);
  }
  for (const MetricsSnapshot::Histogram& h : snapshot.histograms) {
    if (!PartitionDependentMetric(h.name)) filtered.histograms.push_back(h);
  }
  return filtered.ToJson();
}

EngineStats MergeEngineStats(const std::vector<EngineStats>& stats) {
  EngineStats merged;
  for (const EngineStats& s : stats) {
    merged.events_pushed += s.events_pushed;
    merged.events_fired += s.events_fired;
    merged.events_cancelled += s.events_cancelled;
    merged.wheel_scheduled += s.wheel_scheduled;
    merged.overflow_scheduled += s.overflow_scheduled;
    merged.overflow_migrated += s.overflow_migrated;
    merged.inline_callbacks += s.inline_callbacks;
    merged.heap_callbacks += s.heap_callbacks;
    merged.peak_live = std::max(merged.peak_live, s.peak_live);
    merged.peak_resident = std::max(merged.peak_resident, s.peak_resident);
    merged.peak_pool_slots =
        std::max(merged.peak_pool_slots, s.peak_pool_slots);
  }
  return merged;
}

PsimEngine::PsimEngine(const PsimConfig& config) : config_(config) {
  world_ = std::make_unique<PsimWorld>(config_, NetParamsFrom(config_));
  world_->frame_air_time =
      static_cast<double>(kMacHeaderBytes + kBeaconBodyBytes) * 8.0 /
      config_.bit_rate_bps;
  BuildWorld();
}

void PsimEngine::BuildWorld() {
  const FieldPartition& part = world_->partition;
  const int n = config_.node_count;
  world_->nodes.resize(static_cast<size_t>(n));
  world_->cell_nodes.resize(static_cast<size_t>(part.cell_count()));

  // Placement comes from the run seed alone, and each node's CSMA and
  // mobility streams are forked from (seed, node id) — never from a
  // shard stream — so the traffic a node generates is independent of
  // which shard happens to own it.
  // Neighbor tables are pre-sized from the field density (4x the mean
  // degree, floor 16) so a table never regrows mid-run — part of the
  // zero-steady-state-allocation contract.
  const double area = config_.field.Width() * config_.field.Height();
  const double mean_degree =
      area <= 0.0 ? static_cast<double>(n)
                  : static_cast<double>(n) * 3.14159265358979323846 *
                        config_.radio_range_m * config_.radio_range_m /
                        area;
  const size_t degree_bound = std::min<size_t>(
      static_cast<size_t>(std::max(0, n - 1)),
      static_cast<size_t>(4.0 * mean_degree) + 16);

  Rng placement_rng(config_.seed);
  for (int i = 0; i < n; ++i) {
    PsimNode& node = world_->nodes[static_cast<size_t>(i)];
    const Point pos = placement_rng.PointInRect(config_.field);
    node.rng = Rng(PsimShard::NodeSeed(config_.seed,
                                       static_cast<uint32_t>(i), 0));
    if (config_.max_speed > 0.0) {
      node.mobility = std::make_unique<RandomWaypointMobility>(
          pos, config_.field, config_.max_speed,
          Rng(PsimShard::NodeSeed(config_.seed, static_cast<uint32_t>(i),
                                  1)));
    } else {
      node.mobility = std::make_unique<StaticMobility>(pos);
    }
    node.neighbors = NeighborTable(config_.neighbor_timeout);
    node.neighbors.Reserve(degree_bound);
    node.cell = part.CellOf(pos);
    node.next_beacon = node.rng.Uniform(0.0, config_.beacon_interval);
    world_->cell_nodes[static_cast<size_t>(node.cell)].push_back(
        static_cast<uint32_t>(i));
  }
  // Head-room so per-cell buckets rarely regrow once the run reaches
  // steady state (the allocation gate counts second-half growth).
  for (std::vector<uint32_t>& bucket : world_->cell_nodes) {
    bucket.reserve(bucket.size() * 2 + 8);
  }

  // Fault schedule: a kill lands on the first sweep window whose time is
  // >= the configured instant, so the set of dead nodes at any window is
  // a pure function of (schedule, window) — identical on every shard
  // layout.
  world_->alive.assign(static_cast<size_t>(n), 1);
  if (!config_.node_kills.empty()) {
    world_->kill_window.assign(static_cast<size_t>(n),
                               std::numeric_limits<uint64_t>::max());
    const uint64_t refresh =
        static_cast<uint64_t>(part.refresh_windows());
    const double sweep_period = part.lookahead() * part.refresh_windows();
    for (const auto& [when, id] : config_.node_kills) {
      if (id >= static_cast<uint32_t>(n)) continue;
      const uint64_t kw =
          when <= 0.0
              ? 0
              : static_cast<uint64_t>(std::ceil(when / sweep_period)) *
                    refresh;
      uint64_t& slot = world_->kill_window[id];
      slot = std::min(slot, kw);
    }
  }

  // The query plane's schedule and sizing must exist before the shards:
  // each shard ctor pre-warms its itinerary scratch from max_radius and
  // sizes its query mailboxes from the workload bounds.
  world_->query.config = config_.query;
  BuildQueryPlane(&world_->query, config_.field, n, config_.radio_range_m,
                  config_.max_speed, config_.duration, config_.seed);
  if (config_.query.enabled) {
    const double time_unit =
        std::max(part.lookahead(), config_.query.diknn.time_unit);
    world_->query.collection_windows =
        static_cast<uint32_t>(std::clamp<int64_t>(
            std::llround(time_unit / part.lookahead()), 1,
            static_cast<int64_t>(kQuerySlotCount) - 2));
  }

  shards_.reserve(static_cast<size_t>(part.shards()));
  for (int s = 0; s < part.shards(); ++s) {
    shards_.push_back(std::make_unique<PsimShard>(world_.get(), s));
  }
  // Neighbor links follow the tiling's 8-neighborhood: each shard owns
  // one SPSC inbox per adjacent shard (that neighbor is its only
  // producer) and holds an outbox pointer at each neighbor's matching
  // inbox. Creation and binding are separate passes so inbox addresses
  // are stable before anyone captures them.
  for (int s = 0; s < part.shards(); ++s) {
    for (int from : part.NeighborShards(s)) {
      shards_[static_cast<size_t>(s)]->CreateInbox(from);
    }
  }
  for (int s = 0; s < part.shards(); ++s) {
    for (int to : part.NeighborShards(s)) {
      shards_[static_cast<size_t>(s)]->AddOutbox(
          to, shards_[static_cast<size_t>(to)]->InboxFrom(s));
    }
  }
  // Adoption in node-id order gives every shard a deterministic owned
  // list and initial event-push order.
  for (int i = 0; i < n; ++i) {
    const int owner =
        part.OwnerOfCell(world_->nodes[static_cast<size_t>(i)].cell);
    shards_[static_cast<size_t>(owner)]->AdoptNode(
        static_cast<uint32_t>(i));
  }
}

PsimResult PsimEngine::Run() {
  assert(!ran_ && "PsimEngine::Run is single-shot");
  ran_ = true;
  const FieldPartition& part = world_->partition;
  const int shard_count = part.shards();
  const uint64_t windows = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(config_.duration / part.lookahead())));
  const uint64_t midpoint = windows / 2;
  const double lookahead = part.lookahead();

  // Flight recorder: sampled from the window barrier's completion step.
  // The first barrier of window k completes once every shard has finished
  // window k-1 and arrived — a global quiescent point at sim time k*L
  // where the partition-invariant counter sums are exact functions of
  // (seed, config, k), independent of the shard count, and every read is
  // ordered by the barrier (no races). The completion function samples
  // whenever a window boundary crosses the configured cadence.
  FlightRecorder recorder(config_.ts);
  const bool ts_on = config_.ts.enabled();
  struct TsState {
    CounterDelta frames, attempted, collided, lost, qp_hops;
    SloReport prev_slo;
    ServingCounters prev_serving;
    double prev_t = 0.0;
    double next_sample_t = 0.0;
    uint64_t prev_k = 0;
    uint64_t sample_windows = 0;  ///< Windows covered by the current tick.
    std::chrono::steady_clock::time_point prev_wall;
  };
  TsState ts_state;
  if (ts_on) {
    ts_state.next_sample_t = config_.ts.interval;
    ts_state.prev_wall = std::chrono::steady_clock::now();

    TimeSeries* frames_per_s = recorder.AddSeries("net.frames_per_s");
    TimeSeries* airtime_share = recorder.AddSeries("net.airtime_share");
    TimeSeries* collision_rate = recorder.AddSeries("net.collision_rate");
    TimeSeries* loss_rate = recorder.AddSeries("net.loss_rate");
    recorder.AddProbe([this, &ts_state, frames_per_s, airtime_share,
                       collision_rate, loss_rate](double t) {
      uint64_t frames = 0, attempted = 0, collided = 0, lost = 0;
      for (const std::unique_ptr<PsimShard>& sh : shards_) {
        const PsimStats& st = sh->stats();
        frames += st.frames_sent;
        attempted += st.receptions_attempted;
        collided += st.receptions_collided;
        lost += st.receptions_lost;
      }
      const double dt = t - ts_state.prev_t;
      const uint64_t df = ts_state.frames.Take(frames);
      const uint64_t da = ts_state.attempted.Take(attempted);
      frames_per_s->Append(t, dt > 0.0 ? df / dt : 0.0);
      airtime_share->Append(
          t, dt > 0.0 ? df * world_->frame_air_time / dt : 0.0);
      collision_rate->Append(t, SafeRate(ts_state.collided.Take(collided),
                                         da));
      loss_rate->Append(t, SafeRate(ts_state.lost.Take(lost), da));
    });
    if (config_.query.enabled) {
      TimeSeries* hops_per_s = recorder.AddSeries("qp.hops_per_s");
      TimeSeries* issued_per_s = recorder.AddSeries("workload.issued_per_s");
      TimeSeries* goodput = recorder.AddSeries("workload.goodput_qps");
      TimeSeries* p50_ms = recorder.AddSeries("workload.p50_ms");
      TimeSeries* p99_ms = recorder.AddSeries("workload.p99_ms");
      TimeSeries* miss_rate = recorder.AddSeries("workload.miss_rate");
      TimeSeries* reject_rate = recorder.AddSeries("workload.reject_rate");
      TimeSeries* timeout_rate = recorder.AddSeries("workload.timeout_rate");
      TimeSeries* cache_hit_rate =
          recorder.AddSeries("serving.cache_hit_rate");
      TimeSeries* coalesce_rate = recorder.AddSeries("serving.coalesce_rate");
      TimeSeries* shed_per_s = recorder.AddSeries("serving.shed_per_s");
      recorder.AddProbe([this, &ts_state, hops_per_s, issued_per_s, goodput,
                         p50_ms, p99_ms, miss_rate, reject_rate,
                         timeout_rate, cache_hit_rate, coalesce_rate,
                         shed_per_s](double t) {
        uint64_t hops = 0;
        for (const std::unique_ptr<PsimShard>& sh : shards_) {
          hops += sh->stats().qp.hops;
        }
        const double dt = t - ts_state.prev_t;
        hops_per_s->Append(
            t, dt > 0.0 ? ts_state.qp_hops.Take(hops) / dt : 0.0);
        const SloReport& now = world_->query.sink->report();
        const SloReport& prev = ts_state.prev_slo;
        const uint64_t issued = now.issued - prev.issued;
        issued_per_s->Append(t, dt > 0.0 ? issued / dt : 0.0);
        goodput->Append(
            t, dt > 0.0 ? (now.completed - prev.completed) / dt : 0.0);
        p50_ms->Append(t,
                       1e3 * now.latency.DeltaPercentile(prev.latency, 50.0));
        p99_ms->Append(t,
                       1e3 * now.latency.DeltaPercentile(prev.latency, 99.0));
        miss_rate->Append(
            t, SafeRate(now.deadline_missed - prev.deadline_missed, issued));
        reject_rate->Append(t, SafeRate(now.rejected - prev.rejected,
                                        issued));
        timeout_rate->Append(t, SafeRate(now.timed_out - prev.timed_out,
                                         issued));
        const ServingFrontEnd* front_end = world_->query.sink->serving();
        const ServingCounters sc = front_end != nullptr
                                       ? front_end->counters()
                                       : ServingCounters{};
        const ServingCounters& sp = ts_state.prev_serving;
        const uint64_t hits = sc.cache_hits - sp.cache_hits;
        const uint64_t misses = sc.cache_misses - sp.cache_misses;
        cache_hit_rate->Append(t, SafeRate(hits, hits + misses));
        coalesce_rate->Append(t, SafeRate(sc.coalesced - sp.coalesced,
                                          issued));
        shed_per_s->Append(t, dt > 0.0 ? (sc.shed - sp.shed) / dt : 0.0);
        ts_state.prev_serving = sc;
        ts_state.prev_slo = now;
      });
    }
    // Per-shard health diagnostics: wall-clock shares and live mailbox
    // occupancy. Partition-dependent by nature (busy_s precedent) —
    // exported under "diagnostics", never byte-compared.
    for (int s = 0; s < shard_count; ++s) {
      PsimShard* sh = shards_[static_cast<size_t>(s)].get();
      TimeSeries* busy_share = recorder.AddSeries(
          ShardMetricName(s, "busy_share"), /*diagnostic=*/true);
      TimeSeries* mbox = recorder.AddSeries(
          ShardMetricName(s, "mbox_frames"), /*diagnostic=*/true);
      TimeSeries* migrations = recorder.AddSeries(
          ShardMetricName(s, "migrations_in"), /*diagnostic=*/true);
      recorder.AddProbe([sh, busy_share, mbox, migrations](double t) {
        const double total = sh->live_busy_s + sh->live_wait_s;
        busy_share->Append(t, total > 0.0 ? sh->live_busy_s / total : 0.0);
        size_t depth = 0;
        for (const auto& inbox : sh->inboxes_) {
          depth += inbox->frames.SizeApprox();
        }
        mbox->Append(t, static_cast<double>(depth));
        migrations->Append(t, static_cast<double>(
                                  sh->stats().migrations_in));
      });
    }
    TimeSeries* windows_per_s =
        recorder.AddSeries("psim.windows_per_s", /*diagnostic=*/true);
    recorder.AddProbe([&ts_state, windows_per_s](double t) {
      const auto now_wall = std::chrono::steady_clock::now();
      const double wall_dt = Seconds(now_wall - ts_state.prev_wall);
      ts_state.prev_wall = now_wall;
      windows_per_s->Append(
          t, wall_dt > 0.0
                 ? static_cast<double>(ts_state.sample_windows) / wall_dt
                 : 0.0);
    });
  }

  uint64_t barrier_phase = 0;
  auto on_phase = [&]() noexcept {
    const uint64_t p = barrier_phase++;
    if (!ts_on || p % 2 != 0) return;
    const uint64_t k = p / 2;  // Windows 0..k-1 fully processed.
    if (k == 0 || k > windows) return;
    const double t = k * lookahead;
    if (t + 1e-12 < ts_state.next_sample_t) return;
    ts_state.sample_windows = k - ts_state.prev_k;
    // The completion step runs on whichever worker arrives last, under
    // that worker's AllocScope: the recorder's growth belongs to no shard.
    AllocScopePause recorder_growth;
    recorder.Tick(t);
    ts_state.prev_t = t;
    ts_state.prev_k = k;
    ts_state.next_sample_t =
        (std::floor(t / config_.ts.interval) + 1.0) * config_.ts.interval;
  };

  std::barrier<decltype(on_phase)> sync(shard_count, on_phase);
  const auto worker = [&](int s) {
    PsimShard& shard = *shards_[static_cast<size_t>(s)];
    // Attribute this worker's allocations to its shard so the
    // steady-state gate aggregates correctly across psim threads (the
    // repetition-level --jobs model arms one scope per run; here it is
    // one scope per shard thread).
    AllocScope scope(shard.allocs());
    using Clock = std::chrono::steady_clock;
    double busy = 0.0;
    double wait = 0.0;
    for (uint64_t k = 0; k < windows; ++k) {
      auto w0 = Clock::now();
      // Publish the running wall-clock totals for the recorder's
      // diagnostic probes; the barrier orders this store before the
      // completion step's read.
      shard.live_busy_s = busy;
      shard.live_wait_s = wait;
      sync.arrive_and_wait();
      auto t0 = Clock::now();
      wait += Seconds(t0 - w0);
      shard.SweepIfDue(k);
      busy += Seconds(Clock::now() - t0);
      w0 = Clock::now();
      sync.arrive_and_wait();
      t0 = Clock::now();
      wait += Seconds(t0 - w0);
      if (k == midpoint) shard.BeginSteadyState();
      shard.DrainMailboxes(k);
      shard.ProcessWindow(k);
      busy += Seconds(Clock::now() - t0);
    }
    // Final barrier: every producer has finished its last process phase,
    // so one more drain settles the boundary/foreign balance exactly.
    auto w0 = Clock::now();
    sync.arrive_and_wait();
    wait += Seconds(Clock::now() - w0);
    shard.DrainRemaining();
    shard.FinalizeStats();
    shard.stats().busy_s = busy;
    shard.stats().barrier_wait_s = wait;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) threads.emplace_back(worker, s);
  for (std::thread& t : threads) t.join();
  const double wall_s =
      Seconds(std::chrono::steady_clock::now() - wall_start);

  // Workers are joined: single-threaded from here. Settle everything the
  // horizon left pending (in-flight queries time out) and seal the
  // report before it is published into the snapshot; the shard owning
  // the sink stands in as its engine.
  if (config_.query.enabled) {
    QueryPlaneState& qp = world_->query;
    PsimShard& owner = *shards_[static_cast<size_t>(
        part.OwnerOfCell(world_->nodes[qp.config.sink].cell))];
    qp.sink->Finalize(static_cast<double>(windows) * lookahead,
                      std::max(0.0, qp.config.horizon - qp.config.warmup),
                      owner);
  }

  // Kill-edge annotations, recomputed from the schedule: each kill lands
  // at its sweep window's boundary, a pure function of (schedule, L) —
  // identical at every shard count.
  if (ts_on && !world_->kill_window.empty()) {
    for (size_t i = 0; i < world_->kill_window.size(); ++i) {
      const uint64_t kw = world_->kill_window[i];
      if (kw == std::numeric_limits<uint64_t>::max() || kw > windows) {
        continue;
      }
      recorder.Annotate(kw * lookahead, "node.kill",
                        static_cast<double>(i));
    }
  }

  PsimResult result;
  result.shards = shard_count;
  result.shards_requested = part.requested_shards();
  result.windows = windows;
  result.lookahead_s = part.lookahead();
  result.wall_s = wall_s;
  result.query_ran = config_.query.enabled;
  if (config_.query.enabled) result.slo = world_->query.sink->report();
  for (int s = 0; s < shard_count; ++s) {
    const PsimShard& shard = *shards_[static_cast<size_t>(s)];
    result.shard_stats.push_back(shard.stats());
    result.shard_engine.push_back(shard.sim().engine_stats());
    result.totals += shard.stats();
  }
  result.engine = MergeEngineStats(result.shard_engine);

  const SimTime end_time = windows * part.lookahead();
  double degree_sum = 0.0;
  for (PsimNode& node : world_->nodes) {
    degree_sum += node.neighbors.CountFresh(end_time);
  }
  result.average_degree =
      world_->nodes.empty() ? 0.0
                            : degree_sum / static_cast<double>(
                                               world_->nodes.size());
  result.obs = BuildObsSnapshot(result);
  result.ts = std::move(recorder.series());
  return result;
}

MetricsSnapshot PsimEngine::BuildObsSnapshot(
    const PsimResult& result) const {
  // One registry per shard, merged in shard order: canonical psim.* and
  // net.* counters add up to the partition-invariant totals, while the
  // ShardMetricName entries attribute work to individual shards.
  std::vector<MetricsSnapshot> snaps;
  snaps.reserve(result.shard_stats.size());
  for (size_t s = 0; s < result.shard_stats.size(); ++s) {
    const PsimStats& st = result.shard_stats[s];
    const EngineStats& es = result.shard_engine[s];
    MetricsRegistry reg;
    reg.PublishCounter("psim.frames_sent", st.frames_sent);
    reg.PublishCounter("psim.csma_attempts", st.csma_attempts);
    reg.PublishCounter("psim.csma_busy", st.csma_busy);
    reg.PublishCounter("psim.csma_failures", st.csma_failures);
    reg.PublishCounter("psim.receptions_attempted",
                       st.receptions_attempted);
    reg.PublishCounter("psim.receptions_delivered",
                       st.receptions_delivered);
    reg.PublishCounter("psim.receptions_collided",
                       st.receptions_collided);
    reg.PublishCounter("psim.receptions_lost", st.receptions_lost);
    reg.PublishCounter("psim.candidates_scanned", st.candidates_scanned);
    reg.PublishCounter("psim.neighbor_updates", st.neighbor_updates);
    reg.PublishCounter("psim.boundary_frames", st.boundary_frames);
    reg.PublishCounter("psim.foreign_frames", st.foreign_frames);
    reg.PublishCounter("psim.migrations_out", st.migrations_out);
    reg.PublishCounter("psim.migrations_in", st.migrations_in);
    reg.PublishCounter("psim.sweeps", st.sweeps);
    reg.PublishCounter("psim.windows", st.windows);
    reg.PublishCounter("psim.audit_probes", st.audit_probes);
    reg.PublishCounter("psim.audit_mismatches", st.audit_mismatches);
    // Keep the packet plane's gate name meaningful under --shards > 1:
    // the summed per-thread steady-state tallies land on net.allocs,
    // exactly where scripts/check_all.sh asserts 0.
    reg.PublishCounter("net.allocs", st.steady_allocs);
    reg.PublishCounter("net.alloc_bytes", st.steady_alloc_bytes);
    reg.PublishCounter("engine.events_pushed", es.events_pushed);
    reg.PublishCounter("engine.events_fired", es.events_fired);
    reg.PublishCounter("engine.events_cancelled", es.events_cancelled);
    reg.PublishGauge("engine.peak_live",
                     static_cast<double>(es.peak_live), GaugeMode::kMax);
    reg.PublishGauge("psim.lookahead_s", result.lookahead_s,
                     GaugeMode::kMax);
    reg.PublishGauge("psim.shards", static_cast<double>(result.shards),
                     GaugeMode::kMax);
    reg.PublishGauge("psim.shards_requested",
                     static_cast<double>(result.shards_requested),
                     GaugeMode::kMax);
    // Shard-attributed rows (names disjoint across shards).
    const int sid = static_cast<int>(s);
    reg.PublishCounter(ShardMetricName(sid, "frames_sent"),
                       st.frames_sent);
    reg.PublishCounter(ShardMetricName(sid, "boundary_frames"),
                       st.boundary_frames);
    reg.PublishCounter(ShardMetricName(sid, "migrations_in"),
                       st.migrations_in);
    reg.PublishCounter(ShardMetricName(sid, "migrations_out"),
                       st.migrations_out);
    reg.PublishCounter(ShardMetricName(sid, "allocs"), st.steady_allocs);
    // busy_s deliberately stays out of the snapshot: it is wall-clock,
    // and the obs snapshot must be bit-identical across repeated runs.
    // The bench reads it from PsimResult::shard_stats instead.
    reg.PublishGauge(
        ShardMetricName(sid, "owned_nodes"),
        static_cast<double>(shards_[s]->owned_count()), GaugeMode::kMax);
    if (config_.query.enabled) {
      // Query-plane counters: canonical qp.* rows add to
      // partition-invariant totals (exchange rows excepted, like the
      // substrate's boundary/foreign split).
      const QueryPlaneStats& qs = st.qp;
      reg.PublishCounter("qp.hops", qs.hops);
      reg.PublishCounter("qp.request_hops", qs.request_hops);
      reg.PublishCounter("qp.qnode_hops", qs.qnode_hops);
      reg.PublishCounter("qp.result_hops", qs.result_hops);
      reg.PublishCounter("qp.home_arrivals", qs.home_arrivals);
      reg.PublishCounter("qp.sector_results", qs.sector_results);
      reg.PublishCounter("qp.replies", qs.replies);
      reg.PublishCounter("qp.collections", qs.collections);
      reg.PublishCounter("qp.retries", qs.retries);
      reg.PublishCounter("qp.drops_loss", qs.drops_loss);
      reg.PublishCounter("qp.drops_stuck", qs.drops_stuck);
      reg.PublishCounter("qp.drops_dead", qs.drops_dead);
      reg.PublishCounter("qp.drops_ttl", qs.drops_ttl);
      reg.PublishCounter("qp.late_replies", qs.late_replies);
      reg.PublishCounter("qp.boundary_frames", qs.boundary_frames);
      reg.PublishCounter("qp.foreign_frames", qs.foreign_frames);
      reg.PublishCounter("qp.remails", qs.remails);
      reg.PublishCounter("qp.state_migrations", qs.state_migrations);
      reg.PublishCounter(ShardMetricName(sid, "qp_hops"), qs.hops);
      reg.PublishCounter(ShardMetricName(sid, "qp_boundary_frames"),
                         qs.boundary_frames);
      if (s == 0) {
        // The sink's SLO and serving tallies are not shard stats;
        // publish them once so the merged snapshot carries the same rows
        // the serial harness emits.
        const SloReport& slo = result.slo;
        reg.PublishCounter("workload.issued", slo.issued);
        reg.PublishCounter("workload.completed", slo.completed);
        reg.PublishCounter("workload.deadline_missed", slo.deadline_missed);
        reg.PublishCounter("workload.rejected", slo.rejected);
        reg.PublishCounter("workload.timed_out", slo.timed_out);
        reg.PublishGauge("workload.peak_inflight",
                         static_cast<double>(slo.peak_inflight),
                         GaugeMode::kMax);
        PublishServingCounters(slo.serving, &reg);
      }
    }
    snaps.push_back(reg.Snapshot());
  }
  return MergeShardSnapshots(snaps);
}

bool PsimEngine::OwnershipInvariantHolds() const {
  for (const std::unique_ptr<PsimShard>& shard : shards_) {
    if (!shard->OwnershipInvariantHolds()) return false;
  }
  size_t owned_total = 0;
  for (const std::unique_ptr<PsimShard>& shard : shards_) {
    owned_total += shard->owned_count();
  }
  return owned_total == world_->nodes.size();
}

PsimResult RunPsim(const PsimConfig& config) {
  PsimEngine engine(config);
  return engine.Run();
}

}  // namespace diknn
