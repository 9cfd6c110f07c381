// The paper's Section 5.1 parameter table, as configured in this library,
// plus measured characteristics of the default network (degree, beacon
// cost) so readers can sanity-check the substrate against the paper.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace diknn;
  using namespace diknn::bench;

  const ExperimentConfig config = PaperDefaults(ProtocolKind::kDiknn);
  const NetworkConfig& net = config.network;
  const DiknnParams& dk = config.diknn;

  std::printf("\n=== Section 5.1 default parameters ===\n");
  std::printf("%-24s %-14s | %-24s %s\n", "Parameter", "Value",
              "Parameter", "Value");
  std::printf("%-24s %-14d | %-24s %.0f m\n", "Node number", net.node_count,
              "r (radio range)", net.radio_range_m);
  std::printf("%-24s %.0fx%.0f m^2%2s | %-24s %d\n", "Network size",
              net.field.Width(), net.field.Height(), "", "Sector number",
              dk.num_sectors);
  std::printf("%-24s %-14s | %-24s %.0f m/s\n", "Node degree", "~20",
              "mu_max", net.max_speed);
  std::printf("%-24s %-14d | %-24s %.1f s\n", "Response size (bytes)",
              static_cast<int>(kQueryResponseBytes), "Beacon interval",
              net.beacon_interval);
  std::printf("%-24s %-14s | %-24s %s\n", "Channel rate", "250 kbps",
              "RTS/CTS", "off");
  std::printf("%-24s %-14.3f | %-24s %.0f s (exp.)\n", "m (time unit, s)",
              dk.time_unit, "Query interval", 1.0 / config.workload->rate);
  std::printf("%-24s %-14s | %-24s %.1f\n", "Rendezvous",
              dk.rendezvous ? "enabled" : "disabled", "Assurance gain",
              dk.assurance_gain);
  std::printf("%-24s %.0f s x %d runs\n", "Simulation", config.duration,
              config.runs);

  // Measured substrate characteristics.
  ProtocolStack stack(config, /*seed=*/1);
  Network& network = stack.network();
  network.Warmup(2.5);
  network.sim().RunUntil(network.sim().Now() + 10.0);
  std::printf("\n=== Measured substrate (10 s idle, seed 1) ===\n");
  std::printf("average node degree      : %.1f\n", network.AverageDegree());
  std::printf("beacon energy (10 s)     : %.3f J network-wide\n",
              network.TotalEnergy(EnergyCategory::kBeacon));
  std::printf("itinerary width w        : %.2f m (sqrt(3)/2 * r)\n",
              DefaultItineraryWidth(network.config().radio_range_m));
  const auto& cs = network.channel().stats();
  std::printf("beacon collision rate    : %.1f%%\n",
              cs.receptions_attempted > 0
                  ? 100.0 * cs.receptions_collided / cs.receptions_attempted
                  : 0.0);
  return 0;
}
