// The shared query sink (workload/query_sink.h) on its own, without a
// network: a fake engine records every launch and outcome and resolves
// launched queries at times the test chooses. Covers admission (FIFO
// promotion at the bound, rejection on overflow), the serving paths
// (shed, cache hit, coalesced followers) and end-of-run settlement, and
// checks that every arrival gets exactly one outcome.

#include "workload/query_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"

namespace diknn {
namespace {

WorkloadSpec MustParse(const std::string& text) {
  std::string error;
  const auto spec = WorkloadSpec::Parse(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(WorkloadSpec{});
}

/// Records what the sink asks of an engine; launches nothing itself.
class FakeEngine : public QuerySink::Engine {
 public:
  Point SinkPosition(NodeId /*sink*/, SimTime /*now*/) override {
    return {50.0, 50.0};
  }
  void Launch(const SinkQuery& query) override {
    launches.push_back(query);
    if (query.path == ServingPath::kDirect) outstanding.insert(query.id);
  }
  void Scored(const SinkQuery& query, const WorkloadQueryRecord& record,
              std::span<const KnnCandidate> answer) override {
    EXPECT_EQ(query.id, record.id);
    records.push_back(record);
    answer_sizes.push_back(answer.size());
    outstanding.erase(query.id);
  }
  void Settled() override { ++settled; }

  /// Ids of the direct launches, in launch order.
  std::vector<uint64_t> DirectLaunches() const {
    std::vector<uint64_t> ids;
    for (const SinkQuery& q : launches) {
      if (q.path == ServingPath::kDirect) ids.push_back(q.id);
    }
    return ids;
  }
  const WorkloadQueryRecord* RecordOf(uint64_t id) const {
    for (const WorkloadQueryRecord& r : records) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }

  std::vector<SinkQuery> launches;
  std::vector<WorkloadQueryRecord> records;
  std::vector<size_t> answer_sizes;
  std::set<uint64_t> outstanding;  ///< Direct launches not yet scored.
  int settled = 0;
};

QuerySink MakeSink(const WorkloadSpec& spec) {
  return QuerySink(spec, Rect::Field(100, 100), /*max_speed=*/0.0,
                   /*radio_range=*/20.0);
}

SampledQuery Knn(const Point& q, int k = 3) {
  return SampledQuery{QueryClass::kKnn, 0, q, k};
}

std::vector<KnnCandidate> AnswerAround(const Point& q, int k) {
  std::vector<KnnCandidate> answer;
  for (int i = 0; i < k; ++i) {
    KnnCandidate c;
    c.id = 100 + i;
    c.position = {q.x + 0.5 * (i + 1), q.y};
    answer.push_back(c);
  }
  return answer;
}

/// Every scored outcome is counted once, nothing is scored twice, and
/// outcomes plus pending queries never exceed the issued count.
void ExpectBalanced(const QuerySink& sink, const FakeEngine& engine) {
  const SloReport& r = sink.report();
  EXPECT_EQ(r.completed + r.deadline_missed + r.rejected + r.timed_out,
            engine.records.size());
  EXPECT_LE(engine.records.size() + static_cast<size_t>(sink.inflight()),
            r.issued);
  std::set<uint64_t> ids;
  for (const WorkloadQueryRecord& rec : engine.records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "query " << rec.id
                                           << " scored twice";
  }
}

/// After Finalize: one outcome per arrival and a balanced report.
void ExpectSettled(const QuerySink& sink, const FakeEngine& engine) {
  ExpectBalanced(sink, engine);
  EXPECT_TRUE(sink.report().Consistent());
  EXPECT_EQ(engine.records.size(), sink.report().issued);
  EXPECT_EQ(sink.inflight(), 0);
}

TEST(QuerySinkTest, PromotesFifoAtTheBoundAndRejectsOnOverflow) {
  QuerySink sink = MakeSink(MustParse("admit@inflight=2,queue=2"));
  FakeEngine engine;
  for (uint64_t id = 1; id <= 5; ++id) {
    sink.Arrive(id, Knn({10.0 * id, 10.0}), 0.0, 0.0, engine);
    ExpectBalanced(sink, engine);
  }
  // Two launch, two wait, the fifth finds the room full.
  EXPECT_EQ(engine.DirectLaunches(), (std::vector<uint64_t>{1, 2}));
  ASSERT_EQ(engine.records.size(), 1u);
  EXPECT_EQ(engine.records[0].id, 5u);
  EXPECT_EQ(engine.records[0].outcome, QueryOutcome::kRejected);
  EXPECT_EQ(sink.inflight(), 2);

  // A resolution is scored before the oldest waiting query takes its
  // slot, and the promoted query's latency includes its queue wait.
  sink.Resolve(1, 0.5, /*timed_out=*/false, {}, 0.5, engine);
  ExpectBalanced(sink, engine);
  EXPECT_EQ(engine.settled, 1);
  EXPECT_EQ(engine.records.back().id, 1u);
  EXPECT_EQ(engine.records.back().outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(engine.records.back().latency, 0.5);
  EXPECT_EQ(engine.DirectLaunches(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(engine.launches.back().launched_at, 0.5);

  sink.Resolve(3, 0.25, false, {}, 0.75, engine);
  EXPECT_EQ(engine.records.back().queue_wait, 0.5);
  EXPECT_EQ(engine.records.back().latency, 0.75);
  EXPECT_EQ(engine.DirectLaunches(), (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(sink.report().peak_inflight, 2u);

  sink.Resolve(2, 1.0, /*timed_out=*/true, {}, 1.0, engine);
  sink.Resolve(4, 0.5, false, {}, 1.25, engine);
  // Unknown (already resolved) ids are ignored.
  sink.Resolve(4, 0.5, false, {}, 1.5, engine);
  sink.Finalize(2.0, 2.0, engine);
  ExpectSettled(sink, engine);
  EXPECT_EQ(sink.report().completed, 3u);
  EXPECT_EQ(sink.report().timed_out, 1u);
  EXPECT_EQ(sink.report().rejected, 1u);
}

TEST(QuerySinkTest, NegativeBudgetShedsWithoutLaunching) {
  QuerySink sink =
      MakeSink(MustParse("deadline@s=1;admit@inflight=1,queue=4,shed=1"));
  FakeEngine engine;
  sink.Arrive(1, Knn({10, 10}), 0.0, 0.0, engine);
  sink.Arrive(2, Knn({80, 80}), 0.0, 0.0, engine);  // Waits for a slot.
  ASSERT_EQ(engine.launches.size(), 1u);
  // The first query ends past the deadline; by the time the second one
  // leaves the queue its whole budget is gone, so it is shed.
  sink.Resolve(1, 2.0, false, {}, 2.0, engine);
  ExpectBalanced(sink, engine);
  EXPECT_EQ(engine.launches.size(), 1u) << "a shed query never launches";
  const WorkloadQueryRecord* shed = engine.RecordOf(2);
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->outcome, QueryOutcome::kRejected);
  EXPECT_EQ(shed->path, ServingPath::kShed);
  EXPECT_EQ(shed->queue_wait, 2.0);
  EXPECT_EQ(engine.RecordOf(1)->outcome, QueryOutcome::kDeadlineMissed);
  sink.Finalize(3.0, 3.0, engine);
  ExpectSettled(sink, engine);
  EXPECT_EQ(sink.report().serving.shed, 1u);
}

TEST(QuerySinkTest, CacheHitResolvesAtOnceWithoutLaunching) {
  QuerySink sink = MakeSink(MustParse("cache@ttl=10"));
  FakeEngine engine;
  const Point q{30, 30};
  sink.Arrive(1, Knn(q), 0.0, 0.0, engine);
  sink.Resolve(1, 1.0, false, AnswerAround(q, 3), 1.0, engine);
  ASSERT_EQ(engine.DirectLaunches().size(), 1u);

  sink.Arrive(2, Knn(q), 2.0, 2.0, engine);
  ExpectBalanced(sink, engine);
  EXPECT_EQ(engine.DirectLaunches().size(), 1u) << "a hit never launches";
  EXPECT_EQ(engine.launches.back().path, ServingPath::kCacheHit);
  const WorkloadQueryRecord* hit = engine.RecordOf(2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(hit->path, ServingPath::kCacheHit);
  EXPECT_EQ(hit->latency, 0.0);
  EXPECT_EQ(engine.answer_sizes.back(), 3u);
  EXPECT_EQ(sink.inflight(), 0);
  // It passed through the in-flight count on the way.
  EXPECT_EQ(sink.report().peak_inflight, 1u);
  sink.Finalize(3.0, 3.0, engine);
  ExpectSettled(sink, engine);
  EXPECT_EQ(sink.report().serving.cache_hits, 1u);
}

TEST(QuerySinkTest, FollowersResolveWithTheirLeaderInAttachOrder) {
  QuerySink sink = MakeSink(MustParse("coalesce@window=5"));
  FakeEngine engine;
  const Point q{40, 40};
  sink.Arrive(1, Knn(q), 0.0, 0.0, engine);
  sink.Arrive(2, Knn(q), 0.25, 0.25, engine);
  sink.Arrive(3, Knn(q), 0.5, 0.5, engine);
  EXPECT_EQ(engine.DirectLaunches(), (std::vector<uint64_t>{1}));
  EXPECT_EQ(sink.inflight(), 3) << "parked followers are in flight";

  sink.Resolve(1, 1.0, false, AnswerAround(q, 3), 1.0, engine);
  ExpectBalanced(sink, engine);
  ASSERT_EQ(engine.records.size(), 3u);
  EXPECT_EQ(engine.records[0].id, 1u);
  EXPECT_EQ(engine.records[1].id, 2u);
  EXPECT_EQ(engine.records[2].id, 3u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(engine.records[i].path, ServingPath::kFollower);
    EXPECT_EQ(engine.records[i].outcome, QueryOutcome::kCompleted);
    EXPECT_EQ(engine.answer_sizes[i], 3u) << "the leader's answer";
  }
  // Each follower's latency runs from its own arrival.
  EXPECT_EQ(engine.records[1].latency, 0.75);
  EXPECT_EQ(engine.records[2].latency, 0.5);
  EXPECT_EQ(engine.settled, 3);

  // A leader that times out takes its followers with it.
  sink.Arrive(4, Knn(q), 2.0, 2.0, engine);
  sink.Arrive(5, Knn(q), 2.5, 2.5, engine);
  sink.Resolve(4, 8.0, /*timed_out=*/true, {}, 10.0, engine);
  EXPECT_EQ(engine.RecordOf(4)->outcome, QueryOutcome::kTimedOut);
  EXPECT_EQ(engine.RecordOf(5)->outcome, QueryOutcome::kTimedOut);
  EXPECT_EQ(engine.RecordOf(5)->path, ServingPath::kFollower);
  sink.Finalize(11.0, 11.0, engine);
  ExpectSettled(sink, engine);
  EXPECT_EQ(sink.report().serving.coalesced, 3u);
  EXPECT_EQ(sink.report().serving.fanned_out, 3u);
}

TEST(QuerySinkTest, FinalizeRejectsQueuedAndTimesOutInFlight) {
  QuerySink sink =
      MakeSink(MustParse("admit@inflight=2,queue=2;coalesce@window=5"));
  FakeEngine engine;
  const Point q{60, 60};
  sink.Arrive(1, Knn(q), 0.0, 0.0, engine);             // Leader.
  sink.Arrive(2, Knn(q), 0.5, 0.5, engine);             // Follower.
  sink.Arrive(3, Knn({10, 90}), 1.0, 1.0, engine);      // Queued.
  sink.Arrive(4, Knn({90, 10}), 1.5, 1.5, engine);      // Queued.
  EXPECT_TRUE(engine.records.empty());
  sink.Finalize(4.0, 4.0, engine);
  ExpectSettled(sink, engine);
  // The waiting room first, in FIFO order, then what is in flight, by id.
  ASSERT_EQ(engine.records.size(), 4u);
  const uint64_t order[] = {3, 4, 1, 2};
  const QueryOutcome outcome[] = {QueryOutcome::kRejected,
                                  QueryOutcome::kRejected,
                                  QueryOutcome::kTimedOut,
                                  QueryOutcome::kTimedOut};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.records[i].id, order[i]);
    EXPECT_EQ(engine.records[i].outcome, outcome[i]);
  }
  EXPECT_EQ(engine.records[0].queue_wait, 3.0);
  EXPECT_EQ(engine.records[3].path, ServingPath::kFollower);
  EXPECT_EQ(sink.report().duration, 4.0);
  // Settlement is the end: no resolution re-arms anything.
  EXPECT_EQ(engine.settled, 0);
  // A reply that lands after the end changes nothing.
  sink.Resolve(1, 5.0, false, AnswerAround(q, 3), 5.0, engine);
  EXPECT_EQ(engine.records.size(), 4u);
}

TEST(QuerySinkTest, EveryArrivalGetsExactlyOneOutcome) {
  QuerySink sink = MakeSink(MustParse(
      "deadline@s=1.5;admit@inflight=3,queue=2,shed=1;cache@ttl=1,cells=8;"
      "coalesce@window=0.5,kslack=2"));
  FakeEngine engine;
  const Point hotspots[] = {{20, 20}, {70, 30}, {50, 80}, {85, 85}};
  Rng rng(7);
  SimTime now = 0.0;
  uint64_t next_id = 1;
  for (int step = 0; step < 400; ++step) {
    now += rng.Uniform(0.0, 0.2);
    if (engine.outstanding.empty() || rng.Uniform(0.0, 1.0) < 0.6) {
      const Point q = hotspots[rng.UniformInt(0, 3)];
      sink.Arrive(next_id++, Knn(q, rng.UniformInt(2, 5)), now, now,
                  engine);
    } else {
      // Resolve one outstanding direct launch, sometimes as a timeout.
      auto it = engine.outstanding.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int>(engine.outstanding.size()) -
                                  1));
      const uint64_t id = *it;
      const auto launch = std::find_if(
          engine.launches.begin(), engine.launches.end(),
          [id](const SinkQuery& l) { return l.id == id; });
      ASSERT_NE(launch, engine.launches.end());
      const bool timed_out = rng.Uniform(0.0, 1.0) < 0.1;
      sink.Resolve(id, now - launch->launched_at, timed_out,
                   timed_out ? std::vector<KnnCandidate>{}
                             : AnswerAround(launch->q, launch->k),
                   now, engine);
    }
    ExpectBalanced(sink, engine);
  }
  sink.Finalize(now, now, engine);
  ExpectSettled(sink, engine);
  // The walk exercised every path.
  const ServingCounters& sc = sink.report().serving;
  EXPECT_GT(sc.cache_hits, 0u);
  EXPECT_GT(sc.coalesced, 0u);
  EXPECT_GT(sink.report().rejected, 0u);
  EXPECT_GT(sink.report().completed, 0u);
}

}  // namespace
}  // namespace diknn
