// Capacity planning from the network team's seat: run the entitlement
// granting pipeline for a fleet on a synthetic backbone, explore the
// SLO-vs-approval trade-off, and exercise the §8 bandwidth-negotiation flow
// for an under-approved request (counter-proposal of admittable volume).
#include <algorithm>
#include <iostream>

#include "netent.h"

using namespace netent;

int main() {
  Rng rng(7);

  // A tight backbone: demand is comparable to capacity, so SLO targets bite.
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 8;
  topo_config.base_capacity = Gbps(450);
  const topology::Topology topo = topology::generate_backbone(topo_config, rng);

  traffic::FleetConfig fleet_config;
  fleet_config.region_count = 8;
  fleet_config.service_count = 10;
  fleet_config.high_touch_count = 4;
  fleet_config.total_gbps = 2200.0;
  const auto fleet = traffic::generate_fleet(fleet_config, rng);

  const auto histories = core::synthesize_histories(
      fleet, 60, 3600.0, traffic::DailyAggregate::max_avg_6h, 1.0, rng);
  std::cout << "Fleet: " << fleet.size() << " services, " << histories.size()
            << " pipes with observable history; backbone capacity "
            << topo.total_capacity().tbps() << " Tbps\n\n";

  // --- SLO sweep: what availability can we afford to promise? -------------
  Table sweep({"slo_availability", "egress_approved_pct", "contracts"}, 4);
  for (const double slo : {0.99, 0.999, 0.9998}) {
    core::ManagerConfig config;
    config.approval.slo_availability = slo;
    config.approval.realizations = 4;
    // Triple-failure scenarios: needed to resolve availability targets near
    // the enumeration's probability-mass ceiling.
    config.approval.scenarios.max_simultaneous = 3;
    config.approval.scenarios.min_probability = 1e-9;
    config.forecaster.prophet.use_yearly = false;
    config.high_touch_npgs = {0, 1, 2, 3};
    const core::EntitlementManager manager(topo, config);
    Rng cycle_rng(1);
    const core::CycleResult cycle = manager.run_cycle(histories, cycle_rng);
    sweep.add_row({slo, approval_percentage(cycle.approvals, hose::Direction::egress) * 100.0,
                   static_cast<double>(cycle.contracts.size())});
  }
  sweep.print(std::cout);

  // --- Bandwidth negotiation (§8): handle an under-approved hose. ---------
  core::ManagerConfig config;
  config.approval.slo_availability = 0.9998;
  config.approval.realizations = 4;
  config.approval.scenarios.max_simultaneous = 3;
  config.approval.scenarios.min_probability = 1e-9;
  config.forecaster.prophet.use_yearly = false;
  config.high_touch_npgs = {0, 1, 2, 3};
  const core::EntitlementManager manager(topo, config);
  Rng cycle_rng(1);
  const core::CycleResult cycle = manager.run_cycle(histories, cycle_rng);

  approval::NegotiationConfig negotiation_config;
  negotiation_config.min_useful_fraction = 0.3;
  const approval::NegotiationEngine negotiator(manager.engine(), negotiation_config);
  Rng probe_rng(2);
  const auto proposals = negotiator.negotiate(cycle.approvals, probe_rng);

  const approval::CounterProposal* worst = nullptr;
  for (const auto& proposal : proposals) {
    if (worst == nullptr || proposal.residual > worst->residual) worst = &proposal;
  }
  std::cout << "\nNegotiation: the most under-approved hose is "
            << fleet[worst->original.npg.value()].name << " "
            << to_string(worst->original.direction) << " at region "
            << topo.region(worst->original.region).name << ": requested "
            << worst->original.rate.value() << " Gbps, guaranteed "
            << worst->guaranteed.value() << " Gbps at SLO "
            << config.approval.slo_availability << " (residual "
            << worst->residual.value() << " Gbps).\n"
            << "Automated counter-proposals (approval::NegotiationEngine):\n"
            << "  (a) accept the admittable " << worst->guaranteed.value()
            << " Gbps; carry the residual unguaranteed.\n";
  if (!worst->region_options.empty()) {
    std::cout << "  (b) move the residual to an alternative region:\n";
    for (const auto& option : worst->region_options) {
      std::cout << "        " << topo.region(option.region).name << " guarantees "
                << option.guaranteed.value() << " Gbps of the residual\n";
    }
  }
  if (!worst->qos_options.empty()) {
    std::cout << "  (c) demote the residual to a lower QoS class:\n";
    for (const auto& option : worst->qos_options) {
      std::cout << "        " << to_string(option.qos) << " guarantees "
                << option.guaranteed.value() << " Gbps of the residual\n";
    }
  }
  if (worst->region_options.empty() && worst->qos_options.empty()) {
    std::cout << "  (no useful alternative found: reduce the request or add capacity)\n";
  }
  return 0;
}
