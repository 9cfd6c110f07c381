// Randomized end-to-end property tests: drive each protocol through
// randomly drawn configurations and query sequences, asserting the
// invariants that must hold regardless of topology, mobility, loss, or
// contention:
//
//   1. every IssueQuery handler fires exactly once;
//   2. results never exceed k candidates and contain no duplicates;
//   3. returned ids are real, non-infrastructure node ids;
//   4. simulation time stays monotone and the run terminates;
//   5. energy accounting only ever increases.

#include <cctype>
#include <unordered_set>

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace diknn {
namespace {

struct FuzzCase {
  ProtocolKind protocol;
  uint64_t seed;
};

class ProtocolFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ProtocolFuzzTest, InvariantsHoldUnderRandomConfigs) {
  const FuzzCase& fuzz = GetParam();
  Rng rng(fuzz.seed);

  ExperimentConfig config;
  config.protocol = fuzz.protocol;
  config.network.node_count = rng.UniformInt(60, 220);
  const double side = rng.Uniform(80.0, 160.0);
  config.network.field = Rect::Field(side, side);
  config.network.max_speed = rng.Uniform(0.0, 25.0);
  config.network.loss_rate = rng.Uniform(0.0, 0.2);
  config.network.placement = rng.Bernoulli(0.3)
                                 ? PlacementKind::kClustered
                                 : PlacementKind::kUniform;
  const int k = rng.UniformInt(1, 60);
  config.diknn.num_sectors = rng.UniformInt(1, 12);
  config.diknn.rendezvous = rng.Bernoulli(0.7);
  config.diknn.collection_scheme =
      static_cast<CollectionScheme>(rng.UniformInt(0, 2));

  ProtocolStack stack(config, fuzz.seed);
  Network& net = stack.network();
  net.Warmup(2.5);

  const int mobile = net.config().node_count;
  int handler_calls = 0;
  const int queries = 3;
  double last_energy = net.TotalEnergy();

  for (int i = 0; i < queries; ++i) {
    const Point q = rng.PointInRect(config.network.field);
    stack.protocol().IssueQuery(
        0, q, k, [&, k](const KnnResult& result) {
          ++handler_calls;
          EXPECT_LE(result.candidates.size(), static_cast<size_t>(k));
          std::unordered_set<NodeId> seen;
          for (const KnnCandidate& c : result.candidates) {
            EXPECT_TRUE(seen.insert(c.id).second)
                << "duplicate candidate " << c.id;
            EXPECT_GE(c.id, 0);
            EXPECT_LT(c.id, mobile) << "non-sensor id returned";
          }
          EXPECT_GE(result.completed_at, result.issued_at);
        });
    // Monotone clock + monotone energy while draining.
    const SimTime before = net.sim().Now();
    net.sim().RunUntil(before + 12.0);
    EXPECT_GE(net.sim().Now(), before);
    const double energy = net.TotalEnergy();
    EXPECT_GE(energy, last_energy);
    last_energy = energy;
  }

  EXPECT_EQ(handler_calls, queries) << "handler must fire exactly once";
  EXPECT_EQ(net.sim().pending_events() > 0, true)
      << "beaconing keeps the simulation alive";
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  const ProtocolKind kinds[] = {ProtocolKind::kDiknn,
                                ProtocolKind::kKptKnnb,
                                ProtocolKind::kPeerTree,
                                ProtocolKind::kFlooding,
                                ProtocolKind::kCentralized};
  uint64_t seed = 1000;
  for (ProtocolKind kind : kinds) {
    for (int i = 0; i < 3; ++i) {
      cases.push_back({kind, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, ProtocolFuzzTest, ::testing::ValuesIn(MakeCases()),
    [](const auto& info) {
      std::string name = ProtocolName(info.param.protocol);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace diknn
