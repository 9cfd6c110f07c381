// Cross-engine agreement between the serial QueryDriver and the sharded
// engine's sink (psim/query_plane.h): for one spec and seed both issue
// the same arrival sequence — time, class, query point and k — both
// score the queries still pending at the end of a run the same way, and
// both report the same workload.* / serving.* rows and series.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "psim/query_plane.h"
#include "workload/query_driver.h"

namespace diknn {
namespace {

WorkloadSpec MustParse(const std::string& s) {
  std::string error;
  const auto spec = WorkloadSpec::Parse(s, &error);
  EXPECT_TRUE(spec.has_value()) << s << ": " << error;
  return *spec;
}

/// A point-KNN protocol that records every launch and never answers, so
/// the driver's issue sequence is observable without network noise.
class RecordingProtocol : public KnnProtocol {
 public:
  struct Launch {
    SimTime t;
    Point q;
    int k;
  };

  explicit RecordingProtocol(Simulator* sim) : sim_(sim) {}
  void Install() override {}
  void IssueQuery(NodeId, Point q, int k, ResultHandler) override {
    launches.push_back({sim_->Now(), q, k});
  }
  std::string name() const override { return "recording"; }
  size_t pending_queries() const override { return launches.size(); }

  std::vector<Launch> launches;

 private:
  Simulator* sim_;
};

/// Issues `spec` through a QueryDriver with the static sink and checks
/// that psim's schedule for the same seed is the same sequence.
void ExpectSameArrivals(const std::string& spec_text) {
  ExperimentConfig config;
  config.network.node_count = 100;
  config.network.field = Rect::Field(90, 90);
  const WorkloadSpec spec = MustParse(spec_text);
  constexpr uint64_t kSeed = 42;
  constexpr SimTime kDuration = 15.0;

  ProtocolStack stack(config, kSeed);
  Network& net = stack.network();
  net.Warmup(config.warmup);
  const SimTime start = net.sim().Now();
  RecordingProtocol protocol(&net.sim());
  QueryDriver driver(&net, &stack.gpsr(), &protocol, spec,
                     WorkloadSeed(kSeed), /*sink=*/0);
  driver.Run(kDuration, /*drain=*/0.0);
  std::vector<WorkloadQueryRecord> serial = driver.records();
  std::sort(serial.begin(), serial.end(),
            [](const WorkloadQueryRecord& a, const WorkloadQueryRecord& b) {
              return a.id < b.id;
            });

  QueryPlaneState qp;
  qp.config.enabled = true;
  qp.config.spec = spec;
  qp.config.sink = 0;
  qp.config.warmup = start;
  qp.config.horizon = start + kDuration;
  BuildQueryPlane(&qp, config.network.field, config.network.node_count,
                  config.network.radio_range_m, config.network.max_speed,
                  start + kDuration, kSeed);

  ASSERT_GT(serial.size(), 20u) << spec_text;
  ASSERT_EQ(qp.queries.size(), serial.size()) << spec_text;
  // Point-KNN and continuous arrivals launch on the protocol at arrival
  // (no admission bound), in arrival order.
  size_t launch = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    const PsimQuery& q = qp.queries[i];
    EXPECT_EQ(q.issue_t, serial[i].arrived_at) << spec_text << " #" << i;
    EXPECT_EQ(q.cls, serial[i].cls) << spec_text << " #" << i;
    if (q.cls != QueryClass::kKnn && q.cls != QueryClass::kContinuous) {
      continue;
    }
    ASSERT_LT(launch, protocol.launches.size()) << spec_text;
    const RecordingProtocol::Launch& l = protocol.launches[launch++];
    EXPECT_EQ(l.t, q.issue_t) << spec_text << " #" << i;
    EXPECT_EQ(l.q.x, q.q.x) << spec_text << " #" << i;
    EXPECT_EQ(l.q.y, q.q.y) << spec_text << " #" << i;
    EXPECT_EQ(l.k, q.k) << spec_text << " #" << i;
  }
  EXPECT_EQ(launch, protocol.launches.size()) << spec_text;
}

TEST(CrossEngineTest, UniformArrivalsMatchQueryDriver) {
  ExpectSameArrivals("arrival@kind=poisson,rate=4;k@lo=4,hi=20");
}

TEST(CrossEngineTest, HotspotArrivalsMatchQueryDriver) {
  ExpectSameArrivals(
      "arrival@kind=poisson,rate=4;k@lo=6,hi=12;"
      "space@kind=hotspot,n=3,sigma=8,skew=1.2");
}

TEST(CrossEngineTest, MixedClassArrivalsMatchQueryDriver) {
  ExpectSameArrivals(
      "arrival@kind=fixed,rate=3;"
      "mix@knn=2,knnb=1,window=1,continuous=1,aggregate=1;k@lo=5,hi=15;"
      "space@kind=hotspot,n=2,sigma=10;window@side=20;"
      "continuous@period=0.5,rounds=2");
}

// Queries still waiting in the admission queue when a run ends never
// launched, so both engines score them as rejected (and what is still in
// flight as timed out).
TEST(CrossEngineTest, QueuedAtEndScoresRejectedOnBothEngines) {
  ExperimentConfig config;
  config.network.node_count = 100;
  config.network.field = Rect::Field(90, 90);
  config.duration = 8.0;
  config.drain = 1.0;
  // One query in flight and a waiting room that never overflows: every
  // rejection is an end-of-run queued arrival.
  config.workload = MustParse(
      "arrival@kind=poisson,rate=12;k@lo=5;admit@inflight=1,queue=1000");

  const RunMetrics serial = RunOnce(config, /*seed=*/7);
  config.force_windowed = true;
  const RunMetrics sharded = RunOnce(config, /*seed=*/7);

  for (const RunMetrics* m : {&serial, &sharded}) {
    const SloReport& slo = m->slo;
    EXPECT_TRUE(slo.Consistent());
    EXPECT_GT(slo.rejected, 0u);
    EXPECT_EQ(slo.peak_inflight, 1u);
  }
  EXPECT_EQ(serial.slo.issued, sharded.slo.issued);
}

// The workload.* / serving.* names a run reports: obs rows of every
// kind, and flight-recorder series.
struct SinkNames {
  std::set<std::string> rows;
  std::set<std::string> series;
};

SinkNames SinkReportNames(const RunMetrics& m) {
  const auto sink_owned = [](const std::string& name) {
    return name.rfind("workload.", 0) == 0 || name.rfind("serving.", 0) == 0;
  };
  SinkNames names;
  for (const MetricsSnapshot::Counter& c : m.obs.counters) {
    if (sink_owned(c.name)) names.rows.insert(c.name);
  }
  for (const MetricsSnapshot::Gauge& g : m.obs.gauges) {
    if (sink_owned(g.name)) names.rows.insert(g.name);
  }
  for (const MetricsSnapshot::Histogram& h : m.obs.histograms) {
    if (sink_owned(h.name)) names.rows.insert(h.name);
  }
  for (const TimeSeries& s : m.ts.series()) {
    if (sink_owned(s.name())) names.series.insert(s.name());
  }
  return names;
}

// One spec reports the same names whichever engine runs it: the sink
// publishes its rows and installs its series itself. The serving.*
// series exist only when the spec enables a serving stage.
TEST(CrossEngineTest, OneSpecReportsTheSameNamesOnBothEngines) {
  for (const bool served : {true, false}) {
    ExperimentConfig config;
    config.network.node_count = 100;
    config.network.field = Rect::Field(90, 90);
    config.duration = 6.0;
    config.drain = 1.0;
    config.ts.interval = 1.0;
    config.workload = MustParse(
        served ? "arrival@kind=poisson,rate=6;k@lo=5;"
                 "space@kind=hotspot,n=2,sigma=5;cache@ttl=8,cells=3;"
                 "coalesce@window=3,kslack=6"
               : "arrival@kind=poisson,rate=6;k@lo=5");

    const SinkNames serial = SinkReportNames(RunOnce(config, /*seed=*/7));
    config.force_windowed = true;
    const SinkNames windowed = SinkReportNames(RunOnce(config, /*seed=*/7));

    EXPECT_EQ(serial.rows, windowed.rows) << "served=" << served;
    EXPECT_EQ(serial.series, windowed.series) << "served=" << served;
    EXPECT_EQ(serial.rows.count("workload.issued"), 1u);
    EXPECT_EQ(serial.rows.count("serving.cache_hits"), 1u);
    EXPECT_EQ(serial.series.count("workload.inflight"), 1u);
    EXPECT_EQ(serial.series.count("serving.cache_hit_rate"), served ? 1u : 0u);
  }
}

}  // namespace
}  // namespace diknn
