// Fig. 9 — Impact of mobility (paper Section 5.4).
//
// Varies the random-waypoint maximum speed mu_max from 5 to 30 m/s with
// k = 40, comparing DIKNN, KPT+KNNB and Peer-tree on latency, energy and
// pre-/post-accuracy.
//
// Expected shape (paper): DIKNN stays flat on all four metrics
// (infrastructure-free itineraries shrug off topology churn); Peer-tree's
// energy climbs rapidly (MBR-crossing registrations) and its accuracy
// collapses (stale clusterhead records); KPT's latency grows with tree
// repair.

#include "bench_common.h"

int main() {
  using namespace diknn;
  using namespace diknn::bench;

  PrintHeader("Fig. 9: impact of mobility (mu_max sweep), k = 40",
              "mu_max");
  const ProtocolKind kinds[] = {ProtocolKind::kDiknn,
                                ProtocolKind::kKptKnnb,
                                ProtocolKind::kPeerTree};
  for (double mu : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
    for (ProtocolKind kind : kinds) {
      ExperimentConfig config = PaperDefaults(kind);
      config.network.max_speed = mu;
      PrintRow(std::to_string(static_cast<int>(mu)) + " m/s", kind,
               RunExperiment(config));
    }
  }
  return 0;
}
