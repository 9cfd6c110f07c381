// Export round-trip: everything WriteChromeTrace emits must parse as one
// JSON document (Perfetto is strict), and the counter-track mapping for
// an attached flight recording must land on the documented synthetic
// pids — run-level series on pid 1000000, psim.shardK.* diagnostics on
// pid 1000001+K, annotations as instants on the base pid.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/json.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"

namespace diknn {
namespace {

constexpr double kBasePid = 1000000.0;

TraceData SmallTrace() {
  Tracer tracer(1.0, 42);
  const TraceContext root = tracer.StartQuery(0.0);
  const SpanId route = tracer.BeginSpan(root, SpanKind::kRoute, 0.1, -1, 3);
  tracer.EndSpan(root.trace_id, route, 0.4);
  const SpanId sector = tracer.BeginSpan(root, SpanKind::kSector, 0.4, 1);
  tracer.EndSpan(root.trace_id, sector, 0.9);
  tracer.AddEvent(root, TraceEventKind::kReply, 0.9, 3);
  tracer.CloseTrace(root.trace_id, 1.0);
  return tracer.Snapshot();
}

TEST(TraceExportTest, ChromeTraceParsesAsJson) {
  TraceSink sink(SmallTrace());
  std::ostringstream os;
  sink.WriteChromeTrace(os);
  std::string error;
  const auto doc = JsonValue::Parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_FALSE(events->array.empty());
  const JsonValue* paths = doc->Find("criticalPaths");
  ASSERT_NE(paths, nullptr);
  ASSERT_TRUE(paths->IsArray());
  ASSERT_FALSE(paths->array.empty());
  const JsonValue& p = paths->array.front();
  EXPECT_NE(p.Find("query"), nullptr);
  EXPECT_NE(p.Find("total_s"), nullptr);
  EXPECT_NE(p.Find("dominant"), nullptr);
}

TEST(TraceExportTest, CounterTracksLandOnSyntheticPids) {
  TimeSeriesSet ts{TimeSeriesOptions{0.5, 16}};
  TimeSeries* goodput = ts.Add("workload.goodput_per_s");
  goodput->Append(0.5, 3.0);
  goodput->Append(1.0, 4.0);
  ts.Add("psim.shard2.window_occupancy", /*diagnostic=*/true)
      ->Append(0.5, 7.5);
  ts.Annotate(0.75, "node.kill", 12.0);

  TraceSink sink(SmallTrace());
  sink.set_timeseries(&ts);
  std::ostringstream os;
  sink.WriteChromeTrace(os);
  std::string error;
  const auto doc = JsonValue::Parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  int counters = 0, shard_counters = 0, instants = 0, metadata = 0;
  for (const JsonValue& e : doc->Find("traceEvents")->array) {
    const std::string ph = e.Find("ph") ? e.Find("ph")->StringOr("") : "";
    const std::string name =
        e.Find("name") ? e.Find("name")->StringOr("") : "";
    const double pid = e.Find("pid") ? e.Find("pid")->NumberOr(-1) : -1;
    if (ph == "C") {
      ++counters;
      if (name == "workload.goodput_per_s") {
        EXPECT_EQ(pid, kBasePid);
        const JsonValue* v = e.Get("args", "value");
        ASSERT_NE(v, nullptr);
        EXPECT_TRUE(v->NumberOr(-1) == 3.0 || v->NumberOr(-1) == 4.0);
      } else if (name == "psim.shard2.window_occupancy") {
        EXPECT_EQ(pid, kBasePid + 3);  // 1000001 + shard index 2.
        ++shard_counters;
      }
    } else if (ph == "i" && name == "node.kill") {
      EXPECT_EQ(pid, kBasePid);
      ++instants;
    } else if (ph == "M" && name == "process_name" && pid >= kBasePid) {
      ++metadata;
      const JsonValue* label = e.Get("args", "name");
      ASSERT_NE(label, nullptr);
      if (pid == kBasePid) {
        EXPECT_EQ(label->StringOr(""), "timeseries");
      } else {
        EXPECT_EQ(label->StringOr(""), "timeseries shard 2");
      }
    }
  }
  EXPECT_EQ(counters, 3);  // Two goodput samples + one shard sample.
  EXPECT_EQ(shard_counters, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(metadata, 2);  // One process row per synthetic pid.
}

TEST(TraceExportTest, EmptyRecordingEmitsNoCounterTracks) {
  TimeSeriesSet empty;
  TraceSink sink(SmallTrace());
  sink.set_timeseries(&empty);
  std::ostringstream os;
  sink.WriteChromeTrace(os);
  EXPECT_EQ(os.str().find("\"ph\": \"C\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(os.str(), &error).has_value()) << error;
}

TEST(TraceExportTest, SeriesNamesAreJsonEscapedInCounterEvents) {
  TimeSeriesSet ts{TimeSeriesOptions{1.0, 4}};
  ts.Add("odd\"name")->Append(1.0, 2.0);
  TraceSink sink(SmallTrace());
  sink.set_timeseries(&ts);
  std::ostringstream os;
  sink.WriteChromeTrace(os);
  std::string error;
  const auto doc = JsonValue::Parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool found = false;
  for (const JsonValue& e : doc->Find("traceEvents")->array) {
    if (e.Find("name") && e.Find("name")->StringOr("") == "odd\"name") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceExportTest, FrameCsvHasExactHeaderAndOneRowPerFrame) {
  Tracer tracer(0.0);
  tracer.RecordFrame(FrameRecord{0.25, {10.5, 3.0}, "Beacon", 7, 33});
  tracer.RecordFrame(FrameRecord{1.5, {0.0, 42.0}, "DiknnProbe", 12, 57});
  const TraceSink sink(tracer.Snapshot());
  std::ostringstream os;
  sink.WriteFrameCsv(os);
  EXPECT_EQ(os.str(),
            "time,sender,x,y,type,bytes\n"
            "0.25,7,10.5,3,Beacon,33\n"
            "1.5,12,0,42,DiknnProbe,57\n");

  // An empty log is the header alone.
  std::ostringstream empty;
  TraceSink(TraceData{}).WriteFrameCsv(empty);
  EXPECT_EQ(empty.str(), "time,sender,x,y,type,bytes\n");
}

}  // namespace
}  // namespace diknn
