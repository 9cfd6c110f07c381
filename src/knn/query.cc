#include "knn/query.h"

#include <algorithm>
#include <unordered_set>

namespace diknn {

namespace {

// The rank order of every KNN answer: nearer to `q` first, ties to the
// lower id.
struct NearerTo {
  Point q;
  bool operator()(const KnnCandidate& a, const KnnCandidate& b) const {
    const double da = SquaredDistance(a.position, q);
    const double db = SquaredDistance(b.position, q);
    if (da != db) return da < db;
    return a.id < b.id;
  }
};

}  // namespace

std::vector<NodeId> KnnResult::CandidateIds() const {
  std::vector<NodeId> ids;
  ids.reserve(candidates.size());
  for (const KnnCandidate& c : candidates) ids.push_back(c.id);
  return ids;
}

void PruneCandidates(std::vector<KnnCandidate>* candidates, const Point& q,
                     size_t count) {
  // Deduplicate by id in place, keeping the most recent report for each
  // node (the earliest one among equally recent reports). The survivors
  // are compacted into the front; no per-call table, so pruning never
  // allocates.
  std::vector<KnnCandidate>& c = *candidates;
  size_t unique = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    const KnnCandidate report = c[i];
    size_t j = 0;
    while (j < unique && c[j].id != report.id) ++j;
    if (j == unique) {
      c[unique++] = report;
    } else if (report.sampled_at > c[j].sampled_at) {
      c[j] = report;
    }
  }
  c.resize(unique);

  std::sort(candidates->begin(), candidates->end(), NearerTo{q});
  if (candidates->size() > count) candidates->resize(count);
}

std::vector<KnnCandidate> NearestRecords(
    const std::unordered_map<NodeId, KnnCandidate>& table, const Point& q,
    size_t count) {
  std::vector<KnnCandidate> out;
  out.reserve(table.size());
  for (const auto& [id, record] : table) out.push_back(record);
  const auto keep = out.begin() + std::min(count, out.size());
  std::partial_sort(out.begin(), keep, out.end(), NearerTo{q});
  out.erase(keep, out.end());
  return out;
}

double Accuracy(const std::vector<NodeId>& returned,
                const std::vector<NodeId>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<NodeId> got(returned.begin(), returned.end());
  int hits = 0;
  for (NodeId id : truth) {
    if (got.contains(id)) ++hits;
  }
  return static_cast<double>(hits) / truth.size();
}

}  // namespace diknn
