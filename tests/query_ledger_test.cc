// The sink-side query ledger on a bare Simulator: every query completes
// exactly once, on its result, a grace timer or its timeout, and leaves
// neither a live timer nor an entry behind.

#include "knn/query_ledger.h"

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "knn/query.h"
#include "sim/simulator.h"

namespace diknn {
namespace {

struct TestFields {
  int replies = 0;
};
using Ledger = QueryLedger<KnnResult, TestFields>;

constexpr NodeId kSink = 3;
constexpr SimTime kTimeout = 5.0;

class QueryLedgerTest : public ::testing::Test {
 protected:
  // Issues a query from kSink; its handler records the result and then
  // runs `then`, and its timeout completes it as timed out.
  uint64_t Issue(std::function<void()> then = nullptr) {
    const uint64_t id = ledger_.NextId();
    ledger_.Open(
        id, kSink,
        [this, then](const KnnResult& r) {
          results_.push_back(r);
          if (then) then();
        },
        kTimeout, [this, id]() { Complete(id, true); });
    return id;
  }

  // Completes `id` with no payload; false if it already completed.
  bool Complete(uint64_t id, bool timed_out) {
    return ledger_.Complete(id, timed_out,
                            [](Ledger::Entry&, KnnResult&) {});
  }

  void ExpectDrained() {
    EXPECT_EQ(sim_.pending_events(), 0u) << "a query timer is still live";
    EXPECT_EQ(ledger_.size(), 0u);
  }

  Simulator sim_;
  Ledger ledger_{&sim_};
  std::vector<KnnResult> results_;
};

TEST_F(QueryLedgerTest, ResultBeforeTimeoutCompletesOnce) {
  const uint64_t id = Issue();
  sim_.ScheduleAt(1.0, [&] {
    EXPECT_EQ(ledger_.AtSink(id, kSink + 1), nullptr);  // Landed elsewhere.
    Ledger::Entry* entry = ledger_.AtSink(id, kSink);
    ASSERT_NE(entry, nullptr);
    ++entry->replies;
    const bool completed = ledger_.Complete(
        id, false, [&](Ledger::Entry& done, KnnResult& result) {
          // Erased and disarmed before the engine's teardown runs.
          EXPECT_FALSE(ledger_.Contains(id));
          EXPECT_EQ(sim_.pending_events(), 0u);
          EXPECT_EQ(done.replies, 1);
          KnnCandidate reply;
          reply.id = 7;
          result.candidates.push_back(reply);
        });
    EXPECT_TRUE(completed);
    EXPECT_FALSE(Complete(id, false));  // Exactly once.
  });
  sim_.Run();

  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].query_id, id);
  EXPECT_FALSE(results_[0].timed_out);
  EXPECT_EQ(results_[0].issued_at, 0.0);
  EXPECT_EQ(results_[0].completed_at, 1.0);
  ASSERT_EQ(results_[0].candidates.size(), 1u);
  EXPECT_EQ(results_[0].candidates[0].id, 7);
  EXPECT_EQ(sim_.engine_stats().events_cancelled, 1u);  // The timeout.
  ExpectDrained();
}

TEST_F(QueryLedgerTest, TimeoutThenLateResultCompletesNothing) {
  const uint64_t id = Issue();
  bool late_result_seen = false;
  sim_.ScheduleAt(kTimeout + 1.0, [&] {
    late_result_seen = true;
    EXPECT_EQ(ledger_.AtSink(id, kSink), nullptr);
    EXPECT_FALSE(ledger_.Complete(id, false, [](Ledger::Entry&, KnnResult&) {
      ADD_FAILURE() << "a completed query was finished again";
    }));
  });
  sim_.Run();

  EXPECT_TRUE(late_result_seen);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_TRUE(results_[0].timed_out);
  EXPECT_EQ(results_[0].completed_at, kTimeout);
  EXPECT_EQ(sim_.engine_stats().events_cancelled, 0u);
  ExpectDrained();
}

TEST_F(QueryLedgerTest, GraceRearmCancelsThePreviousGrace) {
  const uint64_t id = Issue();
  const auto on_grace = [this, id]() { Complete(id, false); };
  sim_.ScheduleAt(1.0, [&] { ledger_.ArmGrace(ledger_.Find(id), 1.0,
                                              on_grace); });
  sim_.ScheduleAt(1.5, [&] { ledger_.ArmGrace(ledger_.Find(id), 1.0,
                                              on_grace); });
  sim_.Run();

  ASSERT_EQ(results_.size(), 1u);
  EXPECT_FALSE(results_[0].timed_out);
  EXPECT_EQ(results_[0].completed_at, 2.5);
  // The re-armed first grace, then the timeout at completion.
  EXPECT_EQ(sim_.engine_stats().events_cancelled, 2u);
  ExpectDrained();
}

TEST_F(QueryLedgerTest, HandlerMayIssueTheNextQuery) {
  // Each handler issues the next query while the ledger is completing
  // the current one. Odd ids get a result after one second, even ids
  // time out.
  constexpr uint64_t kQueries = 6;
  std::vector<uint64_t> ids;
  std::function<void()> issue = [&] {
    const uint64_t id = Issue([&] {
      if (ids.size() < kQueries) issue();
    });
    ids.push_back(id);
    if (id % 2 == 1) {
      sim_.ScheduleAfter(1.0, [this, id]() { Complete(id, false); });
    }
  };
  issue();
  sim_.Run();

  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  ASSERT_EQ(results_.size(), kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(results_[i].query_id, ids[i]);
    EXPECT_EQ(results_[i].timed_out, ids[i] % 2 == 0);
  }
  ExpectDrained();
}

TEST_F(QueryLedgerTest, HandlerMayGrowTheLedger) {
  // The first handler opens enough queries to rehash the ledger while
  // its own entry is being completed; the next id must not repeat.
  constexpr int kBurst = 64;
  const uint64_t first = Issue([&] {
    for (int i = 0; i < kBurst; ++i) Issue();
  });
  sim_.ScheduleAt(1.0, [&] { Complete(first, false); });
  sim_.Run();

  ASSERT_EQ(results_.size(), kBurst + 1u);
  EXPECT_EQ(results_[0].query_id, first);
  for (int i = 1; i <= kBurst; ++i) {
    EXPECT_EQ(results_[i].query_id, first + i);
    EXPECT_TRUE(results_[i].timed_out);
  }
  ExpectDrained();
}

}  // namespace
}  // namespace diknn
