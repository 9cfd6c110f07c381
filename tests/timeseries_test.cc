// The flight recorder's contract (docs/OBSERVABILITY.md):
//
//   1. Ring semantics: a series keeps the newest `capacity` samples in
//      chronological order and counts what fell off the front.
//   2. Determinism: the non-diagnostic series (DeterministicJson) are
//      byte-equal at any --jobs count and, on the windowed engine, at
//      any shard count — same cadence, same integer counter deltas.
//   3. Observation never perturbs: a recorded run carries the exact
//      same traffic as an unrecorded one.
//   4. The serial driver samples on the sim-time cadence: one tick per
//      interval inside (start, end].

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/json.h"
#include "harness/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"

namespace diknn {
namespace {

TEST(TimeSeriesTest, RingKeepsTailAndCountsDropped) {
  TimeSeries s("x", /*capacity=*/3, /*diagnostic=*/false);
  for (int i = 0; i < 5; ++i) {
    s.Append(static_cast<double>(i), static_cast<double>(10 * i));
  }
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 2u);
  // Chronological: oldest retained sample first.
  EXPECT_DOUBLE_EQ(s.TimeAt(0), 2.0);
  EXPECT_DOUBLE_EQ(s.TimeAt(1), 3.0);
  EXPECT_DOUBLE_EQ(s.TimeAt(2), 4.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(0), 20.0);
  EXPECT_DOUBLE_EQ(s.Last(), 40.0);
  EXPECT_DOUBLE_EQ(s.Min(), 20.0);
  EXPECT_DOUBLE_EQ(s.Max(), 40.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 30.0);
}

TEST(TimeSeriesTest, AddIsKeyedByNameAndPointersStayValid) {
  TimeSeriesSet set{TimeSeriesOptions{1.0, 4}};
  TimeSeries* first = set.Add("a");
  // Force enough growth that vector storage would have reallocated.
  for (int i = 0; i < 64; ++i) {
    set.Add(std::to_string(i) + "s");
  }
  EXPECT_EQ(set.Add("a"), first);  // Same name -> same series.
  first->Append(0.0, 1.0);         // The early pointer must still be live.
  EXPECT_EQ(set.Find("a")->size(), 1u);
  EXPECT_EQ(set.Find("missing"), nullptr);
}

TEST(TimeSeriesTest, CsvEscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(TimeSeriesTest, JsonEscapeHandlesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TimeSeriesTest, CsvRowsEscapeSeriesNames) {
  TimeSeriesSet set{TimeSeriesOptions{1.0, 8}};
  set.Add("odd,name")->Append(1.0, 2.0);
  set.Annotate(3.0, "kill,edge", 7.0);
  std::ostringstream os;
  set.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"odd,name\",0,1,2"), std::string::npos);
  EXPECT_NE(csv.find("\"kill,edge\",annotation,3,7"), std::string::npos);
}

TEST(TimeSeriesTest, WriteJsonSeparatesDeterministicFromDiagnostics) {
  TimeSeriesSet set{TimeSeriesOptions{0.5, 8}};
  set.Add("det")->Append(0.5, 1.0);
  set.Add("diag", /*diagnostic=*/true)->Append(0.5, 2.0);
  set.Annotate(0.25, "node.kill", 3.0);
  std::ostringstream os;
  set.WriteJson(os);
  std::string error;
  const auto doc = JsonValue::Parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->Get("series", "det"), nullptr);
  EXPECT_EQ(doc->Get("series", "diag"), nullptr);
  ASSERT_NE(doc->Get("diagnostics", "diag"), nullptr);
  // The deterministic section never mentions diagnostics.
  EXPECT_EQ(set.DeterministicJson().find("diag"), std::string::npos);
}

TEST(FlightRecorderTest, CounterDeltaAndSafeRate) {
  CounterDelta d;
  d.prev = 10;
  EXPECT_EQ(d.Take(15), 5u);
  EXPECT_EQ(d.Take(15), 0u);
  EXPECT_EQ(d.Take(12), 0u);  // A reset counter reads as no progress.
  EXPECT_EQ(d.Take(20), 8u);
  EXPECT_DOUBLE_EQ(SafeRate(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(SafeRate(1, 0), 0.0);
}

TEST(FlightRecorderTest, ScheduleTicksSamplesOncePerInterval) {
  FlightRecorder rec(TimeSeriesOptions{0.5, 32});
  TimeSeries* ticks = rec.AddSeries("ticks");
  rec.AddProbe([ticks](double t, double) { ticks->Append(t, 1.0); });
  Simulator sim;
  rec.ScheduleTicks(&sim, 0.0, 2.0);
  sim.RunUntil(10.0);
  // Ticks at 0.5, 1.0, 1.5, 2.0 — none past the horizon.
  ASSERT_EQ(ticks->size(), 4u);
  EXPECT_DOUBLE_EQ(ticks->TimeAt(0), 0.5);
  EXPECT_DOUBLE_EQ(ticks->TimeAt(3), 2.0);
}

TEST(FlightRecorderTest, ScheduledTicksSpanExactlyOneInterval) {
  // At a 0.1 s cadence the tick times accumulate rounding (0.1 + 0.2 !=
  // 0.3), so t minus the previous tick drifts by ulps; each sample's span
  // is the interval itself, so per-second rates divide by 0.1 exactly.
  FlightRecorder rec(TimeSeriesOptions{0.1, 64});
  TimeSeries* spans = rec.AddSeries("spans");
  rec.AddProbe([spans](double t, double span) { spans->Append(t, span); });
  Simulator sim;
  rec.ScheduleTicks(&sim, 0.0, 3.0);
  sim.RunUntil(10.0);
  ASSERT_GE(spans->size(), 29u);
  bool times_drift = false;
  for (size_t i = 0; i < spans->size(); ++i) {
    EXPECT_EQ(spans->ValueAt(i), 0.1) << i;
    if (i > 0 && spans->TimeAt(i) - spans->TimeAt(i - 1) != 0.1) {
      times_drift = true;
    }
  }
  EXPECT_TRUE(times_drift);
}

TEST(FlightRecorderTest, DisabledOptionsScheduleNothing) {
  FlightRecorder rec(TimeSeriesOptions{});
  TimeSeries* ticks = rec.AddSeries("ticks");
  rec.AddProbe([ticks](double t, double) { ticks->Append(t, 1.0); });
  Simulator sim;
  rec.ScheduleTicks(&sim, 0.0, 2.0);
  sim.RunUntil(10.0);
  EXPECT_TRUE(ticks->empty());
}

// --- Harness integration: the determinism and no-perturbation gates. ---

ExperimentConfig RecordedConfig() {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(100.0, 100.0);
  config.duration = 8.0;
  config.drain = 2.0;
  config.runs = 2;
  config.ts.interval = 0.5;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=6;k@lo=4,hi=8;deadline@s=2;"
      "admit@inflight=16,queue=8",
      &error);
  EXPECT_TRUE(config.workload.has_value()) << error;
  return config;
}

TEST(FlightRecorderTest, ArtifactBitIdenticalAcrossJobs) {
  ExperimentConfig config = RecordedConfig();
  config.jobs = 1;
  const ExperimentMetrics serial = AggregateRuns(RunExperimentRuns(config));
  config.jobs = 2;
  const ExperimentMetrics jobs2 = AggregateRuns(RunExperimentRuns(config));

  ASSERT_FALSE(serial.ts.series().empty());
  ASSERT_GT(serial.ts.series().front().size(), 0u);
  // Whole artifact — diagnostics included: the exported recording is the
  // base seed's run, so --jobs cannot show through anywhere.
  std::ostringstream a, b;
  serial.ts.WriteJson(a);
  jobs2.ts.WriteJson(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(FlightRecorderTest, DeterministicSeriesIdenticalAcrossShards) {
  ExperimentConfig config = RecordedConfig();
  config.runs = 1;
  // A wide field so four real strips exist (psim geometry clamp).
  config.network.node_count = 512;
  config.network.field = Rect::Field(560.0, 115.0);
  config.duration = 4.0;
  config.force_windowed = true;  // 1-shard windowed baseline.
  config.shards = 1;
  const ExperimentMetrics one = AggregateRuns(RunExperimentRuns(config));
  config.force_windowed = false;
  config.shards = 4;
  const ExperimentMetrics four = AggregateRuns(RunExperimentRuns(config));

  ASSERT_FALSE(one.ts.series().empty());
  EXPECT_EQ(one.ts.DeterministicJson(), four.ts.DeterministicJson());
  // The per-shard diagnostics exist and legitimately differ in shape.
  bool has_shard_diag = false;
  for (const TimeSeries& s : four.ts.series()) {
    has_shard_diag |= s.diagnostic() &&
                      s.name().rfind("psim.shard", 0) == 0;
  }
  EXPECT_TRUE(has_shard_diag);
}

TEST(FlightRecorderTest, RecordingDoesNotPerturbTraffic) {
  ExperimentConfig config = RecordedConfig();
  config.runs = 1;
  const std::vector<RunMetrics> recorded = RunExperimentRuns(config);
  config.ts.interval = 0.0;
  const std::vector<RunMetrics> plain = RunExperimentRuns(config);
  ASSERT_EQ(recorded.size(), 1u);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_FALSE(recorded[0].ts.series().empty());
  EXPECT_TRUE(plain[0].ts.series().empty());
  EXPECT_EQ(recorded[0].obs.CounterValue("channel.frames_sent"),
            plain[0].obs.CounterValue("channel.frames_sent"));
  EXPECT_EQ(recorded[0].slo.ToJson(), plain[0].slo.ToJson());
  EXPECT_TRUE(recorded[0].slo.latency == plain[0].slo.latency);
}

TEST(FlightRecorderTest, TsSettingsSetTheRecordingOptions) {
  std::string error;
  const auto spec =
      WorkloadSpec::Parse("arrival@kind=poisson,rate=4", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ExperimentConfig config;
  config.workload = *spec;
  config.ts = TimeSeriesOptions{1.0, 8};
  config.network.node_count = 40;
  config.duration = 2.0;
  config.drain = 0.5;
  config.runs = 1;

  // The options reach the recording inside the harness; observe them
  // through the run.
  const auto runs = RunExperimentRuns(config);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs[0].ts.options().interval, 1.0);
  EXPECT_EQ(runs[0].ts.options().EffectiveCapacity(), 8u);
}

}  // namespace
}  // namespace diknn
