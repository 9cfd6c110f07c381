#include "knn/query.h"

#include <algorithm>
#include <unordered_set>

namespace diknn {

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

  std::sort(candidates->begin(), candidates->end(),
            [&q](const KnnCandidate& a, const KnnCandidate& b) {
              const double da = SquaredDistance(a.position, q);
              const double db = SquaredDistance(b.position, q);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  if (candidates->size() > count) candidates->resize(count);
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
