// The serving front end (src/serving): result-cache validity-time
// expiry, coalescing attach/fan-out semantics, the completion predictor's
// shed/probe behaviour, and driver-level end-to-end properties — cache
// hits under a served workload, follower accounting under leader
// timeouts, and bit-identical reports at any --jobs with or without
// tracing.

#include "serving/front_end.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "obs/tracer.h"
#include "serving/admission.h"
#include "serving/coalescer.h"
#include "serving/result_cache.h"
#include "workload/query_driver.h"

namespace diknn {
namespace {

constexpr int kKnnCls = static_cast<int>(QueryClass::kKnn);

KnnCandidate Cand(NodeId id, double x, double y) {
  KnnCandidate c;
  c.id = id;
  c.position = {x, y};
  return c;
}

std::vector<KnnCandidate> Grid5() {
  // Five candidates on a line; nearest-to-origin order is 0,1,2,3,4.
  return {Cand(0, 1, 0), Cand(1, 2, 0), Cand(2, 3, 0), Cand(3, 4, 0),
          Cand(4, 5, 0)};
}

TEST(ResultCacheTest, EffectiveTtlIsMobilityDerived) {
  const Rect field = Rect::Field(100, 100);
  // One radio range of drift: T = r / mu_max, capped by the spec ttl.
  EXPECT_DOUBLE_EQ(ResultCache(10.0, field, 4, 10.0, 20.0).effective_ttl(),
                   2.0);
  // Faster nodes shrink T.
  EXPECT_DOUBLE_EQ(ResultCache(10.0, field, 4, 20.0, 20.0).effective_ttl(),
                   1.0);
  EXPECT_DOUBLE_EQ(ResultCache(10.0, field, 4, 5.0, 20.0).effective_ttl(),
                   4.0);
  // The spec cap binds when mobility would allow longer.
  EXPECT_DOUBLE_EQ(ResultCache(1.5, field, 4, 5.0, 20.0).effective_ttl(),
                   1.5);
  // A static network is capped only by the spec ttl.
  EXPECT_DOUBLE_EQ(ResultCache(7.0, field, 4, 0.0, 20.0).effective_ttl(),
                   7.0);
}

TEST(ResultCacheTest, ExpiresAtExactlyT) {
  ResultCache cache(10.0, Rect::Field(100, 100), 4, 10.0, 20.0);  // T = 2 s.
  const Point q{10, 10};
  const int32_t cell = cache.CellOf(q);
  cache.Insert(cell, kKnnCls, 3, Grid5(), /*now=*/5.0);

  bool expired = false;
  // Any lookup strictly before inserted_at + T hits.
  EXPECT_TRUE(cache.Lookup(cell, kKnnCls, 3, q, 5.0, &expired).has_value());
  EXPECT_TRUE(
      cache.Lookup(cell, kKnnCls, 3, q, 6.999, &expired).has_value());
  // A lookup at exactly inserted_at + T misses (and reports expiry).
  EXPECT_FALSE(cache.Lookup(cell, kKnnCls, 3, q, 7.0, &expired).has_value());
  EXPECT_TRUE(expired);
}

TEST(ResultCacheTest, ServesKSupersetRePrunedAroundQuerier) {
  ResultCache cache(10.0, Rect::Field(100, 100), 4, 0.0, 20.0);
  const Point q{0, 0};
  const int32_t cell = cache.CellOf(q);
  cache.Insert(cell, kKnnCls, 5, Grid5(), 0.0);

  // Smaller k is a hit and truncates.
  const auto hit = cache.Lookup(cell, kKnnCls, 2, q, 1.0);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[0].id, 0u);
  EXPECT_EQ((*hit)[1].id, 1u);

  // Re-pruning is around the querier's own point: from (6,0) the order
  // reverses.
  const auto far = cache.Lookup(cell, kKnnCls, 2, Point{6, 0}, 1.0);
  ASSERT_TRUE(far.has_value());
  EXPECT_EQ((*far)[0].id, 4u);
  EXPECT_EQ((*far)[1].id, 3u);

  // Larger k than stored is a miss, never a partial hit.
  EXPECT_FALSE(cache.Lookup(cell, kKnnCls, 6, q, 1.0).has_value());
  // A different class misses too.
  EXPECT_FALSE(cache.Lookup(cell, kKnnCls + 1, 2, q, 1.0).has_value());
}

TEST(ResultCacheTest, KeepsLargerValidEntryOverSmallerInsert) {
  ResultCache cache(10.0, Rect::Field(100, 100), 4, 0.0, 20.0);
  const int32_t cell = cache.CellOf({0, 0});
  cache.Insert(cell, kKnnCls, 5, Grid5(), 0.0);
  cache.Insert(cell, kKnnCls, 2, {Cand(9, 0, 0)}, 1.0);
  // The k=5 superset survived, so a k=4 lookup still hits.
  EXPECT_TRUE(cache.Lookup(cell, kKnnCls, 4, {0, 0}, 2.0).has_value());
}

TEST(CoalescerTest, AttachWindowAndKslackBound) {
  QueryCoalescer co(/*window=*/1.0, /*kslack=*/2);
  co.RegisterLeader(/*key=*/7, /*ticket=*/100, /*k=*/10, /*now=*/0.0);
  // In-window, k within leader k + kslack: attaches.
  EXPECT_EQ(co.TryAttach(7, 101, 12, 0.5).value_or(0), 100u);
  // k too large: must launch its own itinerary.
  EXPECT_FALSE(co.TryAttach(7, 102, 13, 0.5).has_value());
  // Different key: no leader.
  EXPECT_FALSE(co.TryAttach(8, 103, 10, 0.5).has_value());
  // Window expired: no attach.
  EXPECT_FALSE(co.TryAttach(7, 104, 10, 1.5).has_value());

  const auto followers = co.OnLeaderResolved(100);
  ASSERT_EQ(followers.size(), 1u);
  EXPECT_EQ(followers[0].ticket, 101u);
  EXPECT_EQ(followers[0].k, 12);
  // Resolved leaders stop existing.
  EXPECT_TRUE(co.OnLeaderResolved(100).empty());
}

TEST(CoalescerTest, ReplacedLeaderKeepsItsFollowers) {
  QueryCoalescer co(/*window=*/10.0, /*kslack=*/0);
  co.RegisterLeader(7, 100, 10, 0.0);
  EXPECT_TRUE(co.TryAttach(7, 101, 10, 0.1).has_value());
  // A new leader takes over the key; the old one keeps follower 101.
  co.RegisterLeader(7, 200, 10, 0.2);
  EXPECT_EQ(co.TryAttach(7, 201, 10, 0.3).value_or(0), 200u);

  const auto old_followers = co.OnLeaderResolved(100);
  ASSERT_EQ(old_followers.size(), 1u);
  EXPECT_EQ(old_followers[0].ticket, 101u);
  // The current leader is untouched by the old one's resolution.
  const auto new_followers = co.OnLeaderResolved(200);
  ASSERT_EQ(new_followers.size(), 1u);
  EXPECT_EQ(new_followers[0].ticket, 201u);
}

TEST(CompletionPredictorTest, ShedsOnlyWithHistoryAndProbesPeriodically) {
  CompletionPredictor pred(/*alpha=*/0.5, /*min_samples=*/2);
  // No history: never sheds.
  EXPECT_FALSE(pred.ShouldShed(0, /*budget=*/0.001));
  pred.Observe(0, 4.0);
  EXPECT_FALSE(pred.ShouldShed(0, 0.001));
  pred.Observe(0, 4.0);
  EXPECT_DOUBLE_EQ(pred.Estimate(0), 4.0);

  // Budget above the estimate: launch.
  EXPECT_FALSE(pred.ShouldShed(0, 5.0));
  // Budget below: shed — except every kProbeInterval-th, which launches
  // as a probe so the estimate can recover.
  int sheds = 0;
  int probes = 0;
  for (int i = 0; i < 2 * CompletionPredictor::kProbeInterval; ++i) {
    if (pred.ShouldShed(0, 1.0)) {
      ++sheds;
    } else {
      ++probes;
    }
  }
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(sheds, 2 * CompletionPredictor::kProbeInterval - 2);
  EXPECT_EQ(pred.probes(), 2u);

  // An unobserved ring borrows the nearest ring with history.
  EXPECT_DOUBLE_EQ(pred.Estimate(5), pred.Estimate(0));
}

TEST(ServingFrontEndTest, RouteWalksCacheCoalesceShed) {
  ServingParams params;
  params.cache_ttl = 10.0;
  params.cache_cells = 4;
  params.coalesce_window = 5.0;
  params.coalesce_kslack = 4;
  params.shed = true;
  ServingFrontEnd fe(params, Rect::Field(100, 100), /*max_speed=*/0.0,
                     /*radio_range=*/20.0);
  const Point q{10, 10};
  const Point sink{90, 90};

  // Cold: the first query launches and becomes leader.
  auto d1 = fe.Route(1, q, sink, kKnnCls, 3, /*budget=*/4.0, /*now=*/0.0);
  EXPECT_EQ(d1.path, ServingPath::kDirect);
  // Co-located second query attaches to it.
  auto d2 = fe.Route(2, q, sink, kKnnCls, 3, 4.0, 0.5);
  EXPECT_EQ(d2.path, ServingPath::kFollower);
  EXPECT_EQ(d2.leader, 1u);

  // Leader completes: followers pop, the cache is seeded.
  const auto followers =
      fe.OnResolved(1, q, sink, kKnnCls, 3, Grid5(), /*latency=*/1.0,
                    /*timed_out=*/false, /*now=*/1.0);
  ASSERT_EQ(followers.size(), 1u);
  EXPECT_EQ(followers[0].ticket, 2u);

  // Third co-located query hits the cache.
  auto d3 = fe.Route(3, q, sink, kKnnCls, 3, 4.0, 1.5);
  EXPECT_EQ(d3.path, ServingPath::kCacheHit);
  EXPECT_EQ(d3.candidates.size(), 3u);

  // A query whose deadline already passed is shed outright.
  auto d4 = fe.Route(4, Point{80, 10}, sink, kKnnCls, 3, -0.5, 2.0);
  EXPECT_EQ(d4.path, ServingPath::kShed);

  const ServingCounters& c = fe.counters();
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.fanned_out, 1u);
  EXPECT_EQ(c.cache_insertions, 1u);
  EXPECT_EQ(c.shed, 1u);
}

// ---- Driver-level end-to-end properties -------------------------------

ExperimentConfig ServedConfig() {
  ExperimentConfig config;
  config.network.node_count = 100;
  config.network.field = Rect::Field(90, 90);
  config.runs = 1;
  config.duration = 20.0;
  config.drain = 6.0;
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=8;k@lo=10;"
      "space@kind=hotspot,n=2,sigma=5,skew=1.2;deadline@s=4;"
      "admit@inflight=128,queue=32,shed=1;"
      "cache@ttl=8,cells=3;coalesce@window=3,kslack=6",
      &error);
  EXPECT_TRUE(spec.has_value()) << error;
  config.workload = *spec;
  return config;
}

void ExpectSloEqual(const SloReport& a, const SloReport& b,
                    const std::string& label) {
  EXPECT_EQ(a.issued, b.issued) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.deadline_missed, b.deadline_missed) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
  EXPECT_EQ(a.timed_out, b.timed_out) << label;
  EXPECT_EQ(a.peak_inflight, b.peak_inflight) << label;
  EXPECT_TRUE(a.serving == b.serving) << label;
  // Byte-identical reports serialize byte-identically.
  EXPECT_EQ(a.ToJson(), b.ToJson()) << label;
}

TEST(ServingDriverTest, ServedWorkloadHitsCacheAndStaysConsistent) {
  const RunMetrics m = RunOnce(ServedConfig(), /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent())
      << "issued=" << m.slo.issued << " completed=" << m.slo.completed
      << " missed=" << m.slo.deadline_missed
      << " rejected=" << m.slo.rejected << " timed_out=" << m.slo.timed_out;
  EXPECT_GT(m.slo.serving.cache_hits, 0u);
  EXPECT_GT(m.slo.serving.coalesced, 0u);
  EXPECT_EQ(m.slo.serving.coalesced, m.slo.serving.fanned_out);
  // The serving counters surface in the obs registry for --metrics-out.
  EXPECT_EQ(m.obs.CounterValue("serving.cache_hits"),
            m.slo.serving.cache_hits);
  EXPECT_EQ(m.obs.CounterValue("serving.coalesced"),
            m.slo.serving.coalesced);
}

TEST(ServingDriverTest, CachedReportsAreBitIdenticalAcrossJobs) {
  ExperimentConfig config = ServedConfig();
  config.duration = 12.0;
  config.runs = 3;

  config.jobs = 1;
  const std::vector<RunMetrics> serial = RunExperimentRuns(config);
  config.jobs = 3;
  const std::vector<RunMetrics> parallel = RunExperimentRuns(config);

  ASSERT_EQ(serial.size(), parallel.size());
  bool any_hits = false;
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSloEqual(serial[i].slo, parallel[i].slo,
                   "run " + std::to_string(i));
    any_hits |= serial[i].slo.serving.cache_hits > 0;
  }
  EXPECT_TRUE(any_hits);
}

TEST(ServingDriverTest, TracingDoesNotPerturbServedRuns) {
  ExperimentConfig config = ServedConfig();
  config.duration = 12.0;
  const RunMetrics untraced = RunOnce(config, /*seed=*/7);

  config.trace_sample = 1.0;
  TraceData trace;
  const RunMetrics traced =
      RunOnce(config, /*seed=*/7, /*records_out=*/nullptr, &trace);

  ExpectSloEqual(untraced.slo, traced.slo, "traced-vs-untraced");
  EXPECT_GT(trace.stats.queries_sampled, 0u);
  // The serving path left its marks in the trace stream.
  bool saw_serving_event = false;
  for (const SpanEvent& ev : trace.events) {
    if (ev.kind == TraceEventKind::kCacheHit ||
        ev.kind == TraceEventKind::kCoalesced ||
        ev.kind == TraceEventKind::kFanOut ||
        ev.kind == TraceEventKind::kShed) {
      saw_serving_event = true;
      break;
    }
  }
  EXPECT_TRUE(saw_serving_event);
}

TEST(ServingDriverTest, FollowerOutcomesBalanceWhenLeadersTimeOut) {
  ExperimentConfig config = ServedConfig();
  // Overload hard so leaders time out with followers attached.
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=24;k@lo=10;"
      "space@kind=hotspot,n=2,sigma=5,skew=1.2;deadline@s=2;"
      "admit@inflight=128,queue=32;"
      "cache@ttl=1,cells=3;coalesce@window=3,kslack=6",
      &error);
  ASSERT_TRUE(config.workload.has_value()) << error;
  const RunMetrics m = RunOnce(config, /*seed=*/11);
  EXPECT_TRUE(m.slo.Consistent())
      << "issued=" << m.slo.issued << " completed=" << m.slo.completed
      << " missed=" << m.slo.deadline_missed
      << " rejected=" << m.slo.rejected << " timed_out=" << m.slo.timed_out;
  EXPECT_GT(m.slo.serving.coalesced, 0u);
  EXPECT_GT(m.slo.timed_out, 0u);
  // Every attached follower either fanned out or was finalized in place;
  // nothing leaks past the report.
  EXPECT_LE(m.slo.serving.fanned_out, m.slo.serving.coalesced);
}

}  // namespace
}  // namespace diknn
