// Protocol comparison at a glance: runs the same small workload through
// DIKNN, KPT+KNNB, Peer-tree and naive flooding, printing one summary row
// per protocol. A miniature of the paper's Section 5 evaluation — see
// bench/ for the full figure reproductions.
//
//   $ ./build/examples/protocol_comparison

#include <cstdio>

#include "harness/experiment.h"

int main() {
  using namespace diknn;

  std::printf("one 40-second workload, k = 20, defaults otherwise\n\n");
  std::printf("%-10s %10s %10s %9s %9s %9s\n", "protocol", "latency(s)",
              "energy(J)", "pre_acc", "post_acc", "queries");

  for (ProtocolKind kind :
       {ProtocolKind::kDiknn, ProtocolKind::kKptKnnb,
        ProtocolKind::kPeerTree, ProtocolKind::kFlooding}) {
    ExperimentConfig config;
    config.protocol = kind;
    config.workload->k_lo = config.workload->k_hi = 20;
    config.duration = 40.0;
    config.runs = 1;
    const RunMetrics m = RunOnce(config, /*seed=*/3);
    std::printf("%-10s %10.2f %10.3f %9.2f %9.2f %6llu (%llu t/o)\n",
                ProtocolName(kind), m.slo.latency.Mean(), m.energy_joules,
                m.avg_pre_accuracy, m.avg_post_accuracy,
                static_cast<unsigned long long>(m.slo.issued),
                static_cast<unsigned long long>(m.slo.timed_out));
  }
  std::printf("\nthe full sweeps (Figs. 8 and 9) live in build/bench/.\n");
  return 0;
}
