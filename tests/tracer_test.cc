#include "obs/tracer.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/beacon.h"
#include "obs/trace_sink.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

// --- Manual span-tree mechanics -------------------------------------

TEST(TracerTest, StartQueryReturnsSampledRootContext) {
  Tracer tracer(1.0, 42);
  const TraceContext ctx = tracer.StartQuery(1.5);
  EXPECT_TRUE(ctx.sampled());
  ASSERT_EQ(tracer.spans().size(), 1u);
  const Span& root = tracer.spans().front();
  EXPECT_EQ(root.kind, SpanKind::kQuery);
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.id, ctx.span_id);
  EXPECT_EQ(root.trace_id, ctx.trace_id);
  EXPECT_EQ(root.start, 1.5);
  EXPECT_FALSE(root.closed());
}

TEST(TracerTest, BeginEndSpanBuildsTree) {
  Tracer tracer(1.0, 42);
  const TraceContext root = tracer.StartQuery(0.0);
  const SpanId route = tracer.BeginSpan(root, SpanKind::kRoute, 0.1, -1, 3);
  ASSERT_NE(route, 0u);
  const TraceContext route_ctx{root.trace_id, route};
  const SpanId hop = tracer.BeginSpan(route_ctx, SpanKind::kHop, 0.2, 1, 4);
  ASSERT_NE(hop, 0u);

  EXPECT_EQ(tracer.ParentOf(root.trace_id, route), root.span_id);
  EXPECT_EQ(tracer.ParentOf(root.trace_id, hop), route);
  EXPECT_EQ(tracer.ParentOf(root.trace_id, root.span_id), 0u);

  tracer.EndSpan(root.trace_id, hop, 0.3);
  const Span* hop_span = tracer.FindSpan(hop);
  ASSERT_NE(hop_span, nullptr);
  EXPECT_TRUE(hop_span->closed());
  EXPECT_EQ(hop_span->end, 0.3);
  EXPECT_EQ(hop_span->sector, 1);
  EXPECT_EQ(hop_span->node, 4);

  // EndSpan is idempotent: a second close keeps the first end time.
  tracer.EndSpan(root.trace_id, hop, 9.9);
  EXPECT_EQ(tracer.FindSpan(hop)->end, 0.3);
  // Unknown ids and id 0 are ignored.
  tracer.EndSpan(root.trace_id, 0, 1.0);
  tracer.EndSpan(root.trace_id, 999, 1.0);
}

TEST(TracerTest, CloseTraceClosesAllOpenSpans) {
  Tracer tracer(1.0, 42);
  const TraceContext root = tracer.StartQuery(0.0);
  const SpanId a = tracer.BeginSpan(root, SpanKind::kSector, 0.1);
  const SpanId b = tracer.BeginSpan(root, SpanKind::kSector, 0.2);
  tracer.EndSpan(root.trace_id, a, 0.5);
  tracer.CloseTrace(root.trace_id, 2.0);
  for (const Span& s : tracer.spans()) EXPECT_TRUE(s.closed());
  EXPECT_EQ(tracer.FindSpan(a)->end, 0.5);  // Earlier close sticks.
  EXPECT_EQ(tracer.FindSpan(b)->end, 2.0);
  EXPECT_EQ(tracer.FindSpan(root.span_id)->end, 2.0);
  // Idempotent.
  tracer.CloseTrace(root.trace_id, 5.0);
  EXPECT_EQ(tracer.FindSpan(root.span_id)->end, 2.0);
}

TEST(TracerTest, AddEventAttachesToSpan) {
  Tracer tracer(1.0, 42);
  const TraceContext root = tracer.StartQuery(0.0);
  tracer.AddEvent(root, TraceEventKind::kRetry, 0.7, 12, 3.0);
  ASSERT_EQ(tracer.events().size(), 1u);
  const SpanEvent& e = tracer.events().front();
  EXPECT_EQ(e.trace_id, root.trace_id);
  EXPECT_EQ(e.span_id, root.span_id);
  EXPECT_EQ(e.kind, TraceEventKind::kRetry);
  EXPECT_EQ(e.time, 0.7);
  EXPECT_EQ(e.node, 12);
  EXPECT_EQ(e.value, 3.0);
  EXPECT_EQ(tracer.stats().events, 1u);
}

TEST(TracerTest, UnsampledContextRecordsNothing) {
  Tracer tracer(0.0, 42);
  const TraceContext ctx = tracer.StartQuery(0.0);
  EXPECT_FALSE(ctx.sampled());
  EXPECT_EQ(tracer.BeginSpan(ctx, SpanKind::kRoute, 0.1), 0u);
  tracer.AddEvent(ctx, TraceEventKind::kReply, 0.2);
  tracer.EndSpan(ctx, 0.3);
  tracer.CloseTrace(ctx.trace_id, 0.4);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.stats().queries_seen, 1u);
  EXPECT_EQ(tracer.stats().queries_sampled, 0u);
}

// --- Sampling --------------------------------------------------------

TEST(TracerTest, SamplingIsDeterministicPerSeed) {
  auto sampled_set = [](uint64_t seed) {
    Tracer tracer(0.5, seed);
    std::vector<bool> sampled;
    for (int i = 0; i < 200; ++i) {
      sampled.push_back(tracer.StartQuery(0.0).sampled());
    }
    return sampled;
  };
  const std::vector<bool> a = sampled_set(7);
  const std::vector<bool> b = sampled_set(7);
  EXPECT_EQ(a, b);  // Same seed, same decisions.
  const size_t hits = std::count(a.begin(), a.end(), true);
  EXPECT_GT(hits, 50u);  // Roughly half at rate 0.5.
  EXPECT_LT(hits, 150u);
  // A different seed picks a different subset.
  EXPECT_NE(a, sampled_set(8));
}

TEST(TracerTest, RateOneSamplesEveryQuery) {
  Tracer tracer(1.0, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(tracer.StartQuery(0.0).sampled());
  }
  EXPECT_EQ(tracer.stats().queries_sampled, 50u);
}

// --- Ambient context --------------------------------------------------

TEST(TracerTest, AmbientScopeExposesContextWithinScope) {
  Tracer tracer(1.0, 42);
  const TraceContext root = tracer.StartQuery(0.0);
  EXPECT_FALSE(tracer.has_ambient());
  {
    Tracer::AmbientScope ambient(&tracer, root);
    ASSERT_TRUE(tracer.has_ambient());
    EXPECT_EQ(tracer.ambient().trace_id, root.trace_id);
    EXPECT_EQ(tracer.ambient().span_id, root.span_id);
  }
  EXPECT_FALSE(tracer.has_ambient());
}

TEST(TracerTest, AmbientScopeToleratesNullTracer) {
  // The workload driver passes nullptr when the run is untraced.
  Tracer::AmbientScope ambient(nullptr, TraceContext{});
}

// --- End-to-end: a real run yields well-formed query trees -----------

ExperimentConfig TracedConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.workload->k_lo = config.workload->k_hi = 8;
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 1;
  config.trace_sample = 1.0;
  return config;
}

TEST(TracerTest, RealRunProducesWellFormedSpanTrees) {
  TraceData trace;
  const RunMetrics metrics = RunOnce(TracedConfig(), 42, nullptr, &trace);
  ASSERT_GT(metrics.slo.issued, 0u);
  ASSERT_GT(trace.stats.queries_sampled, 0u);
  ASSERT_FALSE(trace.spans.empty());

  // Index spans by id for parent lookups.
  auto span_at = [&](SpanId id) -> const Span& {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, trace.spans.size());
    return trace.spans[id - 1];
  };

  size_t roots = 0, sectors = 0, hops = 0, collections = 0, replies = 0;
  for (const Span& s : trace.spans) {
    EXPECT_TRUE(s.closed()) << "span " << s.id << " left open";
    EXPECT_GE(s.end, s.start);
    switch (s.kind) {
      case SpanKind::kQuery:
        ++roots;
        EXPECT_EQ(s.parent, 0u);
        break;
      case SpanKind::kQueue:
      case SpanKind::kRoute:
        EXPECT_EQ(span_at(s.parent).kind, SpanKind::kQuery);
        break;
      case SpanKind::kSector:
        ++sectors;
        EXPECT_EQ(span_at(s.parent).kind, SpanKind::kQuery);
        EXPECT_GE(s.sector, 0);
        break;
      case SpanKind::kHop:
        ++hops;
        EXPECT_EQ(span_at(s.parent).kind, SpanKind::kSector);
        break;
      case SpanKind::kCollection:
        ++collections;
        EXPECT_EQ(span_at(s.parent).kind, SpanKind::kHop);
        break;
      case SpanKind::kReplyRoute:
        ++replies;
        EXPECT_EQ(span_at(s.parent).kind, SpanKind::kSector);
        break;
    }
    // A child never starts before its parent.
    if (s.parent != 0) {
      EXPECT_GE(s.start, span_at(s.parent).start);
      EXPECT_EQ(span_at(s.parent).trace_id, s.trace_id);
    }
  }
  EXPECT_EQ(roots, trace.stats.queries_sampled);
  EXPECT_GT(sectors, 0u);
  EXPECT_GT(hops, 0u);
  EXPECT_EQ(collections, hops);  // Every Q-node visit opens one window.
  EXPECT_GT(replies, 0u);

  // Every event points at a span of its own trace.
  for (const SpanEvent& e : trace.events) {
    if (e.span_id == 0) continue;
    EXPECT_EQ(span_at(e.span_id).trace_id, e.trace_id);
  }
}

TEST(TracerTest, TraceSinkExportsChromeTraceAndCriticalPaths) {
  TraceData trace;
  RunOnce(TracedConfig(), 42, nullptr, &trace);
  TraceSink sink(std::move(trace));

  ASSERT_FALSE(sink.critical_paths().empty());
  // Slowest-first ordering, and phases account for the whole total.
  double prev = sink.critical_paths().front().total;
  for (const CriticalPath& p : sink.critical_paths()) {
    EXPECT_LE(p.total, prev);
    prev = p.total;
    const double phases = p.queue + p.route + p.collection + p.forwarding +
                          p.reply_route + p.sink_wait;
    EXPECT_NEAR(phases, p.total, 1e-9);
    EXPECT_GE(p.hops, 0);
  }
  const std::string line =
      TraceSink::FormatCriticalPath(sink.critical_paths().front());
  EXPECT_NE(line.find("query"), std::string::npos);
  EXPECT_NE(line.find("dominant"), std::string::npos);

  const auto tail = sink.TailCriticalPaths(0.01);
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.front().trace_id, sink.critical_paths().front().trace_id);

  std::ostringstream chrome;
  sink.WriteChromeTrace(chrome);
  const std::string json = chrome.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"criticalPaths\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // Complete spans.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // Instants.

  std::ostringstream csv;
  sink.WriteCsv(csv);
  const std::string csv_text = csv.str();
  EXPECT_EQ(csv_text.find("trace,span,parent,kind,sector,node,start,end"),
            0u);
  const size_t lines = std::count(csv_text.begin(), csv_text.end(), '\n');
  EXPECT_EQ(lines, sink.data().spans.size() + 1);
}

TEST(TracerTest, SampledRunTracesOnlySampledSubset) {
  ExperimentConfig config = TracedConfig();
  config.trace_sample = 0.5;
  // A dense arrival stream so the 50% split has enough queries on both
  // sides of the sampling decision.
  config.workload->rate = 1.0 / 0.3;
  TraceData trace;
  const RunMetrics metrics = RunOnce(config, 42, nullptr, &trace);
  ASSERT_GT(metrics.slo.issued, 0u);
  EXPECT_EQ(trace.sample_rate, 0.5);
  EXPECT_GT(trace.stats.queries_seen, trace.stats.queries_sampled);
  EXPECT_GT(trace.stats.queries_sampled, 0u);
  // Each sampled query has exactly one root span.
  size_t roots = 0;
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kQuery) ++roots;
  }
  EXPECT_EQ(roots, trace.stats.queries_sampled);
}

// --- Frame log: one FrameRecord per transmitted frame ------------------

NetworkConfig FrameLogNetwork() {
  NetworkConfig config;
  config.node_count = 60;
  config.field = Rect::Field(90, 90);
  config.seed = 6;
  return config;
}

TEST(TracerTest, FrameLogRecordsBeacons) {
  Tracer tracer(0.0);  // No query is sampled; the frame log still fills.
  Network net(FrameLogNetwork());
  net.channel().set_tracer(&tracer);
  net.Warmup(2.0);
  EXPECT_GT(tracer.frames().size(), 100u);  // 60 nodes x 4 rounds.
  EXPECT_EQ(tracer.frames().size(), net.channel().stats().frames_sent);
  for (const FrameRecord& f : tracer.frames()) {
    EXPECT_EQ(std::string(f.type), MessageTypeName(MessageType::kBeacon));
    EXPECT_GE(f.time, 0.0);
    EXPECT_GE(f.sender, 0);
    EXPECT_TRUE(net.config().field.Contains(f.position));
    EXPECT_EQ(f.bytes, kBeaconBodyBytes + kMacHeaderBytes);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TracerTest, FrameLogCapturesDiknnQueryTraffic) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kDiknn;
  Tracer tracer(0.0);
  ProtocolStack stack(config, 7);
  Network& net = stack.network();
  net.channel().set_tracer(&tracer);
  net.Warmup(2.0);
  const size_t warmup_frames = tracer.frames().size();

  bool done = false;
  stack.protocol().IssueQuery(0, {57, 57}, 10,
                              [&](const KnnResult&) { done = true; });
  while (!done) net.sim().RunUntil(net.sim().Now() + 0.25);

  std::set<std::string> types;
  for (size_t i = warmup_frames; i < tracer.frames().size(); ++i) {
    types.insert(tracer.frames()[i].type);
  }
  for (const MessageType type :
       {MessageType::kGeoRouted, MessageType::kDiknnProbe,
        MessageType::kDiknnDataReply, MessageType::kDiknnForward,
        MessageType::kMacAck}) {  // ACKs are real frames too.
    EXPECT_TRUE(types.contains(MessageTypeName(type)))
        << MessageTypeName(type);
  }
}

TEST(TracerTest, FrameLogLeavesRunOutputsByteIdentical) {
  ExperimentConfig untraced = TracedConfig();
  untraced.trace_sample = 0.0;
  std::string error;
  untraced.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=60,window=20,aggregate=20;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  ASSERT_TRUE(untraced.workload.has_value()) << error;
  ExperimentConfig traced = untraced;
  traced.trace_sample = 1.0;

  const RunMetrics a = RunOnce(untraced, 42);
  TraceData trace;
  const RunMetrics b = RunOnce(traced, 42, nullptr, &trace);
  ASSERT_GT(a.slo.issued, 0u);
  // The frame log really filled: one record per frame on the air.
  EXPECT_EQ(trace.frames.size(), b.obs.CounterValue("channel.frames_sent"));
  EXPECT_GT(trace.frames.size(), 0u);

  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  // The metrics JSON differs only by the tracer's own tracer.* counters.
  auto drop_tracer = [](MetricsSnapshot s) {
    std::erase_if(s.counters, [](const MetricsSnapshot::Counter& c) {
      return c.name.starts_with("tracer.");
    });
    return s.ToJson();
  };
  EXPECT_EQ(drop_tracer(a.obs), drop_tracer(b.obs));
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
}

}  // namespace
}  // namespace diknn
