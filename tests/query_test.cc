#include "knn/query.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

namespace diknn {
namespace {

KnnCandidate C(NodeId id, double x, double y, SimTime t = 0.0) {
  KnnCandidate c;
  c.id = id;
  c.position = {x, y};
  c.sampled_at = t;
  return c;
}

TEST(KnnResultTest, LatencyAndIds) {
  KnnResult r;
  r.issued_at = 2.0;
  r.completed_at = 3.5;
  r.candidates = {C(5, 0, 0), C(2, 1, 0), C(9, 2, 0)};
  EXPECT_DOUBLE_EQ(r.Latency(), 1.5);
  EXPECT_EQ(r.CandidateIds(), (std::vector<NodeId>{5, 2, 9}));
}

TEST(PruneCandidatesTest, SortsByDistance) {
  std::vector<KnnCandidate> cands = {C(1, 10, 0), C(2, 1, 0), C(3, 5, 0)};
  PruneCandidates(&cands, {0, 0}, 10);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[0].id, 2);
  EXPECT_EQ(cands[1].id, 3);
  EXPECT_EQ(cands[2].id, 1);
}

TEST(PruneCandidatesTest, TruncatesToCount) {
  std::vector<KnnCandidate> cands;
  for (int i = 0; i < 20; ++i) cands.push_back(C(i, i, 0));
  PruneCandidates(&cands, {0, 0}, 5);
  ASSERT_EQ(cands.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(cands[i].id, i);
}

TEST(PruneCandidatesTest, DeduplicatesKeepingFreshest) {
  std::vector<KnnCandidate> cands = {C(7, 50, 0, /*t=*/1.0),
                                     C(7, 2, 0, /*t=*/5.0),
                                     C(8, 3, 0, /*t=*/1.0)};
  PruneCandidates(&cands, {0, 0}, 10);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].id, 7);
  EXPECT_EQ(cands[0].position, Point(2, 0));  // The t=5 report survived.
  EXPECT_DOUBLE_EQ(cands[0].sampled_at, 5.0);
}

TEST(PruneCandidatesTest, TiesBrokenById) {
  std::vector<KnnCandidate> cands = {C(9, 3, 0), C(4, 0, 3), C(6, 3, 0)};
  PruneCandidates(&cands, {0, 0}, 3);
  EXPECT_EQ(cands[0].id, 4);
  EXPECT_EQ(cands[1].id, 6);
  EXPECT_EQ(cands[2].id, 9);
}

TEST(PruneCandidatesTest, EmptyInputStaysEmpty) {
  std::vector<KnnCandidate> cands;
  PruneCandidates(&cands, {0, 0}, 5);
  EXPECT_TRUE(cands.empty());
}

TEST(PruneCandidatesTest, ZeroCountClears) {
  std::vector<KnnCandidate> cands = {C(1, 1, 1)};
  PruneCandidates(&cands, {0, 0}, 0);
  EXPECT_TRUE(cands.empty());
}

TEST(NearestRecordsTest, TiesGoToLowerId) {
  // Three records 3 m from q: the two kept are the two lowest ids.
  const std::unordered_map<NodeId, KnnCandidate> table = {
      {9, C(9, 3, 0)}, {4, C(4, 0, 3)}, {6, C(6, -3, 0)}, {2, C(2, 10, 0)}};
  const std::vector<KnnCandidate> nearest = NearestRecords(table, {0, 0}, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0].id, 4);
  EXPECT_EQ(nearest[1].id, 6);
}

TEST(NearestRecordsTest, CountAboveTableSizeReturnsWholeTableRanked) {
  const std::unordered_map<NodeId, KnnCandidate> table = {
      {1, C(1, 10, 0, /*t=*/2.0)}, {2, C(2, 1, 0)}, {3, C(3, 5, 0)}};
  const std::vector<KnnCandidate> nearest =
      NearestRecords(table, {0, 0}, 10);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].id, 2);
  EXPECT_EQ(nearest[1].id, 3);
  EXPECT_EQ(nearest[2].id, 1);
  EXPECT_DOUBLE_EQ(nearest[2].sampled_at, 2.0);  // Records copy whole.
  EXPECT_TRUE(NearestRecords({}, {0, 0}, 10).empty());
}

TEST(AccuracyTest, PerfectMatch) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {3, 2, 1}), 1.0);
}

TEST(AccuracyTest, PartialMatch) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 9}, {1, 2, 3, 4}), 0.5);
}

TEST(AccuracyTest, NoMatch) {
  EXPECT_DOUBLE_EQ(Accuracy({7, 8}, {1, 2}), 0.0);
}

TEST(AccuracyTest, EmptyTruthIsPerfect) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2}, {}), 1.0);
}

TEST(AccuracyTest, EmptyReturnedIsZero) {
  EXPECT_DOUBLE_EQ(Accuracy({}, {1, 2}), 0.0);
}

TEST(AccuracyTest, ExtraReturnedDoesNotInflate) {
  // Only the truth hits matter (the measure is recall of the true KNN).
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3, 4, 5, 6}, {1, 2}), 1.0);
}

}  // namespace
}  // namespace diknn
