// Fig. 8 — Scalability of DIKNN (paper Section 5.3).
//
// Varies k from 20 to 100 with mu_max = 10 m/s and exponential query
// arrivals (mean 4 s), comparing DIKNN, KPT+KNNB and Peer-tree on the
// paper's four panels: (a) query latency, (b) energy consumption,
// (c) post-accuracy, (d) pre-accuracy.
//
// Expected shape (paper): DIKNN's latency and energy grow slowest with k;
// KPT's energy spikes at large k (collision-driven retransmissions in the
// tree); Peer-tree's latency/energy are highest; DIKNN holds the highest
// accuracy while KPT's degrades as k grows.

#include "bench_common.h"

int main() {
  using namespace diknn;
  using namespace diknn::bench;

  PrintHeader("Fig. 8: impact of k (scalability), mu_max = 10 m/s", "k");
  const ProtocolKind kinds[] = {ProtocolKind::kDiknn,
                                ProtocolKind::kKptKnnb,
                                ProtocolKind::kPeerTree};
  for (int k : {20, 40, 60, 80, 100}) {
    for (ProtocolKind kind : kinds) {
      ExperimentConfig config = PaperDefaults(kind);
      config.workload->k_lo = config.workload->k_hi = k;
      PrintRow(std::to_string(k), kind, RunExperiment(config));
    }
  }
  return 0;
}
