#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "faults/fault_injector.h"
#include "faults/lifecycle_auditor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "psim/engine.h"
#include "workload/query_driver.h"

namespace diknn {

const char* ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kDiknn:
      return "DIKNN";
    case ProtocolKind::kKptKnnb:
      return "KPT+KNNB";
    case ProtocolKind::kPeerTree:
      return "PeerTree";
    case ProtocolKind::kFlooding:
      return "Flooding";
    case ProtocolKind::kCentralized:
      return "Centralized";
  }
  return "?";
}

ProtocolStack::ProtocolStack(const ExperimentConfig& config, uint64_t seed) {
  NetworkConfig net_config = config.network;
  net_config.seed = seed;
  if (config.static_sink) {
    net_config.static_node_count =
        std::max(net_config.static_node_count, 1);
  }
  if (config.protocol == ProtocolKind::kPeerTree) {
    net_config.infrastructure_positions = PeerTree::ClusterheadPositions(
        net_config.field, config.peertree.grid_dim);
  }
  network_ = std::make_unique<Network>(net_config);
  gpsr_ = std::make_unique<GpsrRouting>(network_.get());
  gpsr_->Install();

  switch (config.protocol) {
    case ProtocolKind::kDiknn: {
      auto p = std::make_unique<Diknn>(network_.get(), gpsr_.get(),
                                       config.diknn);
      diknn_ = p.get();
      protocol_ = std::move(p);
      break;
    }
    case ProtocolKind::kKptKnnb: {
      auto p = std::make_unique<KptKnnb>(network_.get(), gpsr_.get(),
                                         config.kpt);
      kpt_ = p.get();
      protocol_ = std::move(p);
      break;
    }
    case ProtocolKind::kPeerTree: {
      auto p = std::make_unique<PeerTree>(network_.get(), gpsr_.get(),
                                          config.peertree);
      peertree_ = p.get();
      protocol_ = std::move(p);
      break;
    }
    case ProtocolKind::kFlooding: {
      auto p = std::make_unique<Flooding>(network_.get(), gpsr_.get(),
                                          config.flooding);
      flooding_ = p.get();
      protocol_ = std::move(p);
      break;
    }
    case ProtocolKind::kCentralized: {
      auto p = std::make_unique<CentralizedIndex>(
          network_.get(), gpsr_.get(), config.centralized);
      centralized_ = p.get();
      protocol_ = std::move(p);
      break;
    }
  }
  protocol_->Install();
}

namespace {

// Copies a run's scheduler counters into its metrics.
void FillEngineCounters(const EngineStats& stats, RunMetrics* metrics) {
  EngineRunCounters& out = metrics->engine;
  out.events_pushed = stats.events_pushed;
  out.events_fired = stats.events_fired;
  out.events_cancelled = stats.events_cancelled;
  out.wheel_scheduled = stats.wheel_scheduled;
  out.overflow_scheduled = stats.overflow_scheduled;
  out.inline_callbacks = stats.inline_callbacks;
  out.heap_callbacks = stats.heap_callbacks;
  out.peak_live = stats.peak_live;
  out.peak_resident = stats.peak_resident;
  out.peak_pool_slots = stats.peak_pool_slots;
}

// Copies a workload run's SLO report and its latency summary.
void FillSloMetrics(const SloReport& slo, RunMetrics* metrics) {
  metrics->slo = slo;
  metrics->queries = static_cast<int>(slo.issued);
  metrics->timeouts = static_cast<int>(slo.timed_out);
  metrics->avg_latency = slo.latency.Mean();
  metrics->p50_latency = slo.p50();
  metrics->p95_latency = slo.p95();
  metrics->p99_latency = slo.p99();
}

// Freezes the run's named metrics into metrics->obs. Called after every
// other RunMetrics field is final so engine / fault / lifecycle values
// can be republished by name; `latencies` holds the resolved (non-timed-
// out) query latencies.
void PublishObsMetrics(Network& net, const GpsrRouting& gpsr,
                       const Diknn* diknn, const Tracer* tracer,
                       const std::vector<double>& latencies,
                       uint64_t steady_frames_baseline,
                       RunMetrics* metrics) {
  MetricsRegistry reg;

  const ChannelStats& ch = net.channel().stats();
  reg.PublishCounter("channel.frames_sent", ch.frames_sent);
  reg.PublishCounter("channel.receptions_attempted",
                     ch.receptions_attempted);
  reg.PublishCounter("channel.receptions_delivered",
                     ch.receptions_delivered);
  reg.PublishCounter("channel.receptions_collided", ch.receptions_collided);
  reg.PublishCounter("channel.receptions_lost", ch.receptions_lost);

  MacStats mac;
  for (Node* node : net.AllNodes()) {
    const MacStats& m = node->mac().stats();
    mac.frames_queued += m.frames_queued;
    mac.tx_attempts += m.tx_attempts;
    mac.retries += m.retries;
    mac.csma_failures += m.csma_failures;
    mac.send_failures += m.send_failures;
    mac.duplicates_dropped += m.duplicates_dropped;
  }
  reg.PublishCounter("mac.frames_queued", mac.frames_queued);
  reg.PublishCounter("mac.tx_attempts", mac.tx_attempts);
  reg.PublishCounter("mac.retries", mac.retries);
  reg.PublishCounter("mac.csma_failures", mac.csma_failures);
  reg.PublishCounter("mac.send_failures", mac.send_failures);
  reg.PublishCounter("mac.duplicates_dropped", mac.duplicates_dropped);

  const GpsrRouting::Stats& gs = gpsr.stats();
  reg.PublishCounter("gpsr.sends", gs.sends);
  reg.PublishCounter("gpsr.greedy_hops", gs.greedy_hops);
  reg.PublishCounter("gpsr.perimeter_hops", gs.perimeter_hops);
  reg.PublishCounter("gpsr.deliveries", gs.deliveries);
  reg.PublishCounter("gpsr.ttl_expired", gs.ttl_expired);
  reg.PublishCounter("gpsr.dropped_no_neighbor", gs.dropped_no_neighbor);
  reg.PublishCounter("gpsr.link_failures", gs.link_failures);
  reg.PublishCounter("gpsr.forks_suppressed", gs.forks_suppressed);

  if (diknn != nullptr) {
    const DiknnStats& ds = diknn->stats();
    reg.PublishCounter("diknn.queries_issued", ds.queries_issued);
    reg.PublishCounter("diknn.queries_completed", ds.queries_completed);
    reg.PublishCounter("diknn.timeouts", ds.timeouts);
    reg.PublishCounter("diknn.home_node_arrivals", ds.home_node_arrivals);
    reg.PublishCounter("diknn.qnode_hops", ds.qnode_hops);
    reg.PublishCounter("diknn.probes_sent", ds.probes_sent);
    reg.PublishCounter("diknn.replies_sent", ds.replies_sent);
    reg.PublishCounter("diknn.sector_results_sent", ds.sector_results_sent);
    reg.PublishCounter("diknn.sector_results_received",
                       ds.sector_results_received);
    reg.PublishCounter("diknn.voids_encountered", ds.voids_encountered);
    reg.PublishCounter("diknn.rendezvous_sent", ds.rendezvous_sent);
    reg.PublishCounter("diknn.boundary_truncations",
                       ds.boundary_truncations);
    reg.PublishCounter("diknn.boundary_extensions", ds.boundary_extensions);
    reg.PublishCounter("diknn.assurance_expansions",
                       ds.assurance_expansions);
    reg.PublishCounter("diknn.stale_branches_dropped",
                       ds.stale_branches_dropped);
    reg.PublishCounter("diknn.dead_node_drops", ds.dead_node_drops);
  }

  const EngineRunCounters& en = metrics->engine;
  reg.PublishCounter("engine.events_pushed", en.events_pushed);
  reg.PublishCounter("engine.events_fired", en.events_fired);
  reg.PublishCounter("engine.events_cancelled", en.events_cancelled);
  reg.PublishGauge("engine.peak_live", static_cast<double>(en.peak_live));
  reg.PublishGauge("engine.peak_resident",
                   static_cast<double>(en.peak_resident));

  reg.PublishCounter("faults.injected", metrics->faults_injected);
  reg.PublishCounter("lifecycle.checks", metrics->lifecycle_checks);
  reg.PublishCounter("lifecycle.violations", metrics->lifecycle_violations);
  reg.PublishCounter("lifecycle.leaked_entries", metrics->leaked_entries);

  PublishServingCounters(metrics->slo.serving, &reg);

  // Allocation-free packet plane gate (docs/PACKET_PLANE.md). The net
  // counter is reset at the midpoint of the measured window — after
  // pools, per-query containers and MAC queues reached their high-water
  // capacity — so what it holds here is the steady state and must be
  // exactly zero. The knn-side counters are deliberately NOT published:
  // they include growth of recycled payload buffers, which depends on
  // thread-local pool warmth carried across runs in one process and would
  // break bit-identity across --jobs; bench_micro asserts the knn gate
  // (amortized-flat) in-process instead.
  const AllocCounters& na = net.channel().net_allocs();
  const uint64_t steady_frames =
      ch.frames_sent - std::min(ch.frames_sent, steady_frames_baseline);
  reg.PublishCounter("net.allocs", na.allocations);
  reg.PublishCounter("net.alloc_bytes", na.bytes);
  reg.PublishCounter("net.frames", steady_frames);
  reg.PublishGauge("net.alloc_per_frame",
                   steady_frames > 0
                       ? static_cast<double>(na.allocations) /
                             static_cast<double>(steady_frames)
                       : static_cast<double>(na.allocations));
  const MessagePoolStats& fp = net.channel().frame_pool_stats();
  reg.PublishCounter("pool.frame_fresh", fp.fresh_allocations);
  reg.PublishCounter("pool.frame_reuses", fp.reuses);
  reg.PublishGauge("pool.frames_live",
                   static_cast<double>(net.channel().frames_in_flight()));

  const TracerStats ts = tracer != nullptr ? tracer->stats() : TracerStats{};
  reg.PublishCounter("tracer.queries_seen", ts.queries_seen);
  reg.PublishCounter("tracer.queries_sampled", ts.queries_sampled);
  reg.PublishCounter("tracer.spans", ts.spans);
  reg.PublishCounter("tracer.events", ts.events);

  reg.PublishGauge("run.energy_joules", metrics->energy_joules,
                   GaugeMode::kSum);
  reg.PublishGauge("run.peak_inflight",
                   static_cast<double>(metrics->slo.peak_inflight));

  const MetricId lat_hist = reg.RegisterHistogram("query.latency_s");
  for (double v : latencies) reg.Observe(lat_hist, v);

  metrics->obs = reg.Snapshot();
}

// CLI flags override the workload spec's timeseries@ clause; either
// source alone enables the recorder.
TimeSeriesOptions ResolveTsOptions(const ExperimentConfig& config) {
  TimeSeriesOptions opts;
  opts.interval = config.ts_interval;
  if (config.ts_capacity > 0) {
    opts.capacity = static_cast<size_t>(config.ts_capacity);
  }
  if (config.workload.has_value()) {
    if (!(opts.interval > 0.0)) opts.interval = config.workload->ts_interval;
    if (opts.capacity == 0 && config.workload->ts_capacity > 0) {
      opts.capacity = static_cast<size_t>(config.workload->ts_capacity);
    }
  }
  return opts;
}

// Channel / MAC series: per-interval frame rate, airtime share of the
// medium, collision and loss rates. The probe only reads ChannelStats /
// MacStats, and the deltas are integer counters (airtime is a sum of
// per-frame durations accumulated in simulation order), so the series
// are deterministic on the serial engine.
void InstallNetProbes(FlightRecorder* rec, Network* net) {
  struct State {
    CounterDelta frames, attempted, collided, lost, mac_tx;
    double prev_airtime = 0.0;
  };
  auto state = std::make_shared<State>();
  const ChannelStats& ch = net->channel().stats();
  state->frames.prev = ch.frames_sent;
  state->attempted.prev = ch.receptions_attempted;
  state->collided.prev = ch.receptions_collided;
  state->lost.prev = ch.receptions_lost;
  state->prev_airtime = ch.airtime_s;
  uint64_t tx0 = 0;
  for (Node* node : net->AllNodes()) tx0 += node->mac().stats().tx_attempts;
  state->mac_tx.prev = tx0;

  TimeSeries* frames_per_s = rec->AddSeries("net.frames_per_s");
  TimeSeries* airtime_share = rec->AddSeries("net.airtime_share");
  TimeSeries* collision_rate = rec->AddSeries("net.collision_rate");
  TimeSeries* loss_rate = rec->AddSeries("net.loss_rate");
  TimeSeries* mac_tx_per_s = rec->AddSeries("mac.tx_attempts_per_s");
  const double interval = rec->options().interval;
  rec->AddProbe([state, net, interval, frames_per_s, airtime_share,
                 collision_rate, loss_rate, mac_tx_per_s](double t) {
    const ChannelStats& ch = net->channel().stats();
    const uint64_t attempted = state->attempted.Take(ch.receptions_attempted);
    frames_per_s->Append(
        t, static_cast<double>(state->frames.Take(ch.frames_sent)) /
               interval);
    airtime_share->Append(t,
                          (ch.airtime_s - state->prev_airtime) / interval);
    state->prev_airtime = ch.airtime_s;
    collision_rate->Append(
        t, SafeRate(state->collided.Take(ch.receptions_collided), attempted));
    loss_rate->Append(
        t, SafeRate(state->lost.Take(ch.receptions_lost), attempted));
    uint64_t tx = 0;
    for (Node* node : net->AllNodes()) tx += node->mac().stats().tx_attempts;
    mac_tx_per_s->Append(
        t, static_cast<double>(state->mac_tx.Take(tx)) / interval);
  });
}

// Workload / serving series from the live SloReport (counts update at
// every resolution; the per-interval percentiles come from bucket-count
// subtraction, so they stay integer-derived and deterministic).
void InstallWorkloadProbes(FlightRecorder* rec, const QueryDriver* driver) {
  struct State {
    SloReport prev;
    ServingCounters prev_serving;
  };
  auto state = std::make_shared<State>();
  state->prev = driver->report();
  if (driver->serving() != nullptr) {
    state->prev_serving = driver->serving()->counters();
  }

  TimeSeries* issued_per_s = rec->AddSeries("workload.issued_per_s");
  TimeSeries* goodput = rec->AddSeries("workload.goodput_qps");
  TimeSeries* p50_ms = rec->AddSeries("workload.p50_ms");
  TimeSeries* p99_ms = rec->AddSeries("workload.p99_ms");
  TimeSeries* miss_rate = rec->AddSeries("workload.miss_rate");
  TimeSeries* reject_rate = rec->AddSeries("workload.reject_rate");
  TimeSeries* timeout_rate = rec->AddSeries("workload.timeout_rate");
  TimeSeries* inflight = rec->AddSeries("workload.inflight");
  const bool serving = driver->serving() != nullptr;
  TimeSeries* cache_hit_rate =
      serving ? rec->AddSeries("serving.cache_hit_rate") : nullptr;
  TimeSeries* coalesce_rate =
      serving ? rec->AddSeries("serving.coalesce_rate") : nullptr;
  TimeSeries* shed_per_s =
      serving ? rec->AddSeries("serving.shed_per_s") : nullptr;
  const double interval = rec->options().interval;
  rec->AddProbe([state, driver, interval, issued_per_s, goodput, p50_ms,
                 p99_ms, miss_rate, reject_rate, timeout_rate, inflight,
                 cache_hit_rate, coalesce_rate, shed_per_s](double t) {
    const SloReport& now = driver->report();
    const SloReport& prev = state->prev;
    const uint64_t issued = now.issued - prev.issued;
    issued_per_s->Append(t, static_cast<double>(issued) / interval);
    goodput->Append(
        t, static_cast<double>(now.completed - prev.completed) / interval);
    p50_ms->Append(t, 1e3 * now.latency.DeltaPercentile(prev.latency, 50.0));
    p99_ms->Append(t, 1e3 * now.latency.DeltaPercentile(prev.latency, 99.0));
    miss_rate->Append(
        t, SafeRate(now.deadline_missed - prev.deadline_missed, issued));
    reject_rate->Append(t, SafeRate(now.rejected - prev.rejected, issued));
    timeout_rate->Append(t, SafeRate(now.timed_out - prev.timed_out, issued));
    inflight->Append(t, static_cast<double>(driver->inflight_count()));
    if (driver->serving() != nullptr) {
      const ServingCounters& sc = driver->serving()->counters();
      const ServingCounters& sp = state->prev_serving;
      const uint64_t hits = sc.cache_hits - sp.cache_hits;
      const uint64_t misses = sc.cache_misses - sp.cache_misses;
      cache_hit_rate->Append(t, SafeRate(hits, hits + misses));
      coalesce_rate->Append(t, SafeRate(sc.coalesced - sp.coalesced, issued));
      shed_per_s->Append(
          t, static_cast<double>(sc.shed - sp.shed) / interval);
      state->prev_serving = sc;
    }
    state->prev = now;
  });
}

// A sharded (or force-windowed) run: hand the substrate to the parallel
// engine. With a workload spec the engine also runs the query plane
// (GPSR forwarding + DIKNN itineraries + the serving front end across
// shard mailboxes), so the RunMetrics carry a populated SloReport next
// to the psim traffic counters, merged per-shard scheduler stats, and
// the psim.* / qp.* observability snapshot.
RunMetrics RunPsimSubstrate(const ExperimentConfig& config, uint64_t seed) {
  const NetworkConfig& net = config.network;
  PsimConfig pc;
  pc.node_count = net.node_count;
  pc.field = net.field;
  pc.radio_range_m = net.radio_range_m;
  pc.bit_rate_bps = net.bit_rate_bps;
  pc.loss_rate = net.loss_rate;
  pc.beacon_interval = net.beacon_interval;
  pc.neighbor_timeout = net.neighbor_timeout;
  pc.max_speed =
      net.mobility == MobilityKind::kStatic ? 0.0 : net.max_speed;
  pc.mac = net.mac;
  pc.shards = config.shards;
  pc.duration = config.warmup + config.duration;
  pc.seed = seed;
  pc.ts = ResolveTsOptions(config);
  if (config.workload.has_value()) {
    // The sink mirrors the serial harness' static sink (node 0). Arrivals
    // cover the measured interval; the drain tail lets in-flight replies
    // land before the horizon times the rest out.
    pc.query.enabled = true;
    pc.query.spec = *config.workload;
    pc.query.diknn = config.diknn;
    pc.query.sink = 0;
    pc.query.warmup = config.warmup;
    pc.query.horizon = config.warmup + config.duration;
    pc.duration = config.warmup + config.duration + config.drain;
  }

  PsimResult result = RunPsim(pc);

  RunMetrics metrics;
  metrics.average_degree = result.average_degree;
  metrics.shards_requested = result.shards_requested;
  metrics.shards_effective = result.shards;
  if (result.query_ran) FillSloMetrics(result.slo, &metrics);
  FillEngineCounters(result.engine, &metrics);
  metrics.obs = result.obs;
  metrics.ts = std::move(result.ts);
  return metrics;
}

}  // namespace

RunMetrics RunOnce(const ExperimentConfig& config, uint64_t seed,
                   std::vector<QueryRecord>* records_out,
                   TraceData* trace_out) {
  if (config.shards > 1 || config.force_windowed) {
    return RunPsimSubstrate(config, seed);
  }
  ProtocolStack stack(config, seed);
  Network& net = stack.network();
  Simulator& sim = net.sim();
  KnnProtocol& protocol = stack.protocol();

  // Attach the query tracer only when something will be sampled: with no
  // tracer every instrumentation site is a single null-pointer check.
  double trace_rate = config.trace_sample;
  if (config.workload.has_value()) {
    trace_rate = std::max(trace_rate, config.workload->trace_sample);
  }
  std::unique_ptr<Tracer> tracer;
  if (trace_rate > 0.0) {
    tracer = std::make_unique<Tracer>(trace_rate, seed);
    net.channel().set_tracer(tracer.get());
    stack.gpsr().set_tracer(tracer.get());
    if (stack.diknn() != nullptr) stack.diknn()->set_tracer(tracer.get());
  }

  net.Warmup(config.warmup);

  // Arm faults only after warmup so the plan's times are relative to the
  // measured workload, and seed the injector from its own derived stream
  // so the channel / MAC / mobility draws match a clean run exactly.
  std::unique_ptr<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<FaultInjector>(
        &net, config.faults, seed * 0x9e3779b97f4a7c15ULL + 101,
        config.static_sink ? 1 : 0);
    injector->Arm();
  }
  std::unique_ptr<LifecycleAuditor> auditor;
  if (config.audit_lifecycle && stack.diknn() != nullptr) {
    auditor =
        std::make_unique<LifecycleAuditor>(stack.diknn(), &stack.gpsr());
  }

  // Flight recorder: sampled only when a timeseries cadence is configured
  // (the disabled path is this null check). Probes are primed after
  // warmup so warmup traffic never enters the series, and the tick events
  // read state without writing any, so a recorded run carries the exact
  // same traffic as an unrecorded one.
  const TimeSeriesOptions ts_options = ResolveTsOptions(config);
  std::unique_ptr<FlightRecorder> recorder;
  if (ts_options.enabled()) {
    recorder = std::make_unique<FlightRecorder>(ts_options);
    InstallNetProbes(recorder.get(), &net);
    if (injector != nullptr) {
      FlightRecorder* rec = recorder.get();
      injector->set_observer([rec](SimTime t, NodeId id, bool alive) {
        rec->Annotate(t, alive ? "node.revive" : "node.kill",
                      static_cast<double>(id));
      });
    }
    recorder->ScheduleTicks(&sim, sim.Now(),
                            sim.Now() + config.duration + config.drain);
  }

  // Exclude warm-up traffic (registration floods, initial beacons) from
  // the energy accounting, matching a steady-state measurement.
  const double maintenance_baseline =
      net.TotalEnergy(EnergyCategory::kMaintenance);
  const double query_baseline = net.TotalEnergy(EnergyCategory::kQuery);
  const double beacon_baseline = net.TotalEnergy(EnergyCategory::kBeacon);

  RunMetrics metrics;

  // Steady-state mark for the allocation gate: halfway through the
  // measured window reset the subsystem counters and remember how many
  // frames the air had carried, so net.alloc_per_frame measures only the
  // warmed-up regime. The event touches nothing the simulation reads, so
  // it cannot perturb determinism.
  auto steady_frames_baseline = std::make_shared<uint64_t>(0);
  {
    Network* net_ptr = &net;
    KnnProtocol* protocol_ptr = &protocol;
    auto baseline = steady_frames_baseline;
    sim.ScheduleAt(sim.Now() + config.duration * 0.5,
                   [net_ptr, protocol_ptr, baseline]() {
                     net_ptr->channel().net_allocs().Reset();
                     protocol_ptr->ResetAllocCounters();
                     *baseline = net_ptr->channel().stats().frames_sent;
                   });
  }

  // The tail both query generators share, run once the simulation ends:
  // energy, degree, faults and lifecycle audit, engine counters, the obs
  // snapshot (with the `resolved` latencies of the queries that
  // finished), the flight recording and the trace.
  const auto finish_run = [&](const std::vector<double>& resolved) {
    metrics.energy_joules =
        (net.TotalEnergy(EnergyCategory::kQuery) - query_baseline) +
        (net.TotalEnergy(EnergyCategory::kMaintenance) -
         maintenance_baseline);
    metrics.beacon_energy_joules =
        net.TotalEnergy(EnergyCategory::kBeacon) - beacon_baseline;
    metrics.average_degree = net.AverageDegree();
    if (injector != nullptr) {
      metrics.faults_injected = injector->stats().Total();
    }
    if (auditor != nullptr) {
      metrics.lifecycle_checks = auditor->checks();
      metrics.lifecycle_violations = auditor->violations();
      metrics.leaked_entries = auditor->FinalResidue();
      if (!auditor->FlowStateBounded()) ++metrics.lifecycle_violations;
    }
    FillEngineCounters(sim.engine_stats(), &metrics);
    PublishObsMetrics(net, stack.gpsr(), stack.diknn(), tracer.get(),
                      resolved, *steady_frames_baseline, &metrics);
    if (recorder != nullptr) metrics.ts = recorder->series();
    if (trace_out != nullptr && tracer != nullptr) {
      *trace_out = tracer->Snapshot();
    }
  };

  // Workload-spec path: hand the run to the QueryDriver (concurrent
  // queries, mixed classes, deadlines, admission control) and score an
  // SloReport. The driver's stream is seeded like the paper generator's,
  // but even a knn-only spec does not replay its arrivals:
  // QuerySampler::Next() also draws a query class for every arrival (at
  // seed 42 with §5.1 defaults the paper path issues 27 queries and
  // "arrival@kind=poisson,rate=0.25;k@lo=40" issues 22).
  if (config.workload.has_value()) {
    QueryDriver driver(&net, &stack.gpsr(), &stack.protocol(),
                       *config.workload, WorkloadSeed(seed),
                       config.static_sink ? 0 : kInvalidNodeId);
    driver.set_tracer(tracer.get());
    if (recorder != nullptr) InstallWorkloadProbes(recorder.get(), &driver);
    FillSloMetrics(driver.Run(config.duration, config.drain), &metrics);
    metrics.avg_pre_accuracy = driver.MeanPreAccuracy();
    metrics.avg_post_accuracy = driver.MeanPostAccuracy();
    if (records_out != nullptr) {
      records_out->clear();
      for (const WorkloadQueryRecord& r : driver.records()) {
        QueryRecord rec;
        rec.query_id = r.id;
        rec.latency = r.latency;
        rec.timed_out = r.outcome == QueryOutcome::kTimedOut;
        rec.pre_accuracy = std::max(r.pre_accuracy, 0.0);
        rec.post_accuracy = std::max(r.post_accuracy, 0.0);
        records_out->push_back(rec);
      }
    }
    std::vector<double> resolved;
    for (const WorkloadQueryRecord& r : driver.records()) {
      if (r.outcome == QueryOutcome::kCompleted ||
          r.outcome == QueryOutcome::kDeadlineMissed) {
        resolved.push_back(r.latency);
      }
    }
    finish_run(resolved);
    return metrics;
  }

  Rng workload_rng(WorkloadSeed(seed));
  auto records = std::make_shared<std::vector<QueryRecord>>();

  // Query generator: Poisson arrivals from a random (mobile) sink to a
  // uniformly random query point. Each issue snapshots the ground truth
  // for pre-accuracy; the completion handler snapshots it again for
  // post-accuracy.
  const SimTime start = sim.Now();
  const SimTime deadline = start + config.duration;
  struct Generator {
    ExperimentConfig config;
    Network* net;
    KnnProtocol* protocol;
    std::shared_ptr<std::vector<QueryRecord>> records;
    Rng rng;
    SimTime deadline;

    void IssueNext() {
      Simulator& sim = net->sim();
      const SimTime next =
          sim.Now() + rng.Exponential(config.query_interval_mean);
      if (next >= deadline) return;
      sim.ScheduleAt(next, [this]() {
        const NodeId sink =
            config.static_sink
                ? 0
                : rng.UniformInt(0, config.network.node_count - 1);
        const Point q = rng.PointInRect(config.network.field);
        const auto truth_pre = net->TrueKnn(q, config.k);
        const SimTime issued = net->sim().Now();
        auto records_ref = records;
        Network* net_ref = net;
        const int k = config.k;
        protocol->IssueQuery(
            sink, q, k,
            [records_ref, net_ref, q, k, truth_pre,
             issued](const KnnResult& result) {
              QueryRecord rec;
              rec.query_id = result.query_id;
              rec.latency = result.Latency();
              rec.timed_out = result.timed_out;
              const auto returned = result.CandidateIds();
              rec.pre_accuracy = Accuracy(returned, truth_pre);
              rec.post_accuracy =
                  Accuracy(returned, net_ref->TrueKnn(q, k));
              records_ref->push_back(rec);
            });
        IssueNext();
      });
    }
  };
  auto generator = std::make_shared<Generator>(
      Generator{config, &net, &protocol, records, workload_rng, deadline});
  generator->IssueNext();

  sim.RunUntil(deadline + config.drain);

  metrics.queries = static_cast<int>(records->size());
  std::vector<double> lat, pre, post;
  for (const QueryRecord& r : *records) {
    if (r.timed_out) ++metrics.timeouts;
    lat.push_back(r.latency);
    pre.push_back(r.pre_accuracy);
    post.push_back(r.post_accuracy);
  }
  metrics.avg_latency = Summarize(lat).mean;
  const std::vector<double> tails = Percentiles(lat, {50.0, 95.0, 99.0});
  metrics.p50_latency = tails[0];
  metrics.p95_latency = tails[1];
  metrics.p99_latency = tails[2];
  metrics.avg_pre_accuracy = Summarize(pre).mean;
  metrics.avg_post_accuracy = Summarize(post).mean;
  if (records_out != nullptr) *records_out = *records;
  std::vector<double> resolved;
  for (const QueryRecord& r : *records) {
    if (!r.timed_out) resolved.push_back(r.latency);
  }
  finish_run(resolved);
  return metrics;
}

std::vector<RunMetrics> RunExperimentRuns(const ExperimentConfig& config) {
  const int runs = std::max(config.runs, 0);
  std::vector<RunMetrics> results(runs);
  const int jobs = std::clamp(config.jobs, 1, std::max(runs, 1));
  if (jobs == 1) {
    for (int i = 0; i < runs; ++i) {
      results[i] = RunOnce(config, config.base_seed + i);
    }
    return results;
  }
  // Repetitions are embarrassingly parallel: every run builds its own
  // simulator, network and RNG streams, and the only process-wide state
  // (the log level) is atomic. Workers pull run indices from a shared
  // counter and write into disjoint slots, so which thread executes
  // which seed never affects the output.
  std::atomic<int> next{0};
  auto worker = [&results, &config, runs, &next]() {
    for (int i = next.fetch_add(1); i < runs; i = next.fetch_add(1)) {
      results[i] = RunOnce(config, config.base_seed + i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

ExperimentMetrics RunExperiment(const ExperimentConfig& config) {
  return AggregateRuns(RunExperimentRuns(config));
}

std::string FormatRow(const std::string& label,
                      const ExperimentMetrics& metrics) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << label << "  latency=" << metrics.latency.mean << "s"
     << "  energy=" << metrics.energy.mean << "J"
     << "  pre_acc=" << metrics.pre_accuracy.mean
     << "  post_acc=" << metrics.post_accuracy.mean
     << "  timeout_rate=" << metrics.timeout_rate.mean;
  return os.str();
}

}  // namespace diknn
