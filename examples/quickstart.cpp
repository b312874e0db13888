// Quickstart: the whole entitlement lifecycle on the paper's Figure 6
// five-region example.
//
//   1. Observed traffic history for the "Ads" service (pipes from region A).
//   2. Demand forecast -> SLI -> hose representation (+ segmentation).
//   3. Risk-aware contract approval at a 0.9998 availability SLO.
//   4. The contract lands in the contract database.
//   5. A host enforcement agent queries the contract and marks traffic.
//
// Build & run:  ./quickstart
#include <iostream>
#include <memory>

#include "netent.h"

using namespace netent;

int main() {
  // --- The network: Figure 6's five regions A..E. ------------------------
  const topology::Topology topo = topology::figure6_topology();
  std::cout << "Backbone: " << topo.region_count() << " regions, " << topo.link_count()
            << " directed links, " << topo.total_capacity().tbps() << " Tbps total capacity\n";

  // --- Observed history: 120 days of daily usage per pipe. ---------------
  // Ads sends from region A to B/C/D/E with a weekly pattern; means match
  // the paper's 300/100/250/250 Gbps example.
  std::vector<core::PipeHistory> histories;
  const double bases[] = {300.0, 100.0, 250.0, 250.0};
  for (std::uint32_t dst = 1; dst <= 4; ++dst) {
    core::PipeHistory history;
    history.npg = NpgId(1);
    history.qos = QosClass::c1_low;
    history.src = RegionId(0);
    history.dst = RegionId(dst);
    for (int day = 0; day < 120; ++day) {
      const double weekly = 1.0 + 0.08 * std::sin(2.0 * 3.14159265 * day / 7.0);
      history.daily.push_back(bases[dst - 1] * weekly);
    }
    histories.push_back(std::move(history));
  }

  // --- One entitlement cycle. ---------------------------------------------
  core::ManagerConfig config;
  config.approval.slo_availability = 0.9998;
  config.approval.realizations = 8;
  config.forecaster.prophet.use_yearly = false;
  config.high_touch_npgs = {1};  // Ads is high-touch
  core::EntitlementManager manager(topo, config);
  manager.set_name_lookup([](NpgId npg) { return npg == NpgId(1) ? "Ads" : "unknown"; });

  Rng rng(1);
  const core::CycleResult cycle = manager.run_cycle(histories, rng);

  std::cout << "\nForecast SLI records: " << cycle.sli.size() << "\n";
  for (const auto& sli : cycle.sli) {
    std::cout << "  Ads " << to_string(sli.qos) << " " << topo.region(sli.src).name << "->"
              << topo.region(sli.dst).name << ": " << sli.bandwidth.value() << " Gbps\n";
  }

  std::cout << "\nHose requests and approvals:\n";
  for (const auto& approval : cycle.approvals) {
    std::cout << "  " << topo.region(approval.request.region).name << " "
              << to_string(approval.request.direction) << " hose: requested "
              << approval.request.rate.value() << " Gbps, approved "
              << approval.approved.value() << " Gbps\n";
  }

  if (!cycle.segments.empty()) {
    std::cout << "\nSegmented hose (Algorithm 1) applied to "
              << cycle.segments.size() << " group(s):\n";
    for (const auto& group : cycle.segments) {
      for (const auto& segment : group.segments) {
        std::cout << "  segment from region " << segment.src << " -> {";
        for (const auto m : segment.members) std::cout << topo.region(RegionId(m)).name;
        std::cout << "} capped at " << segment.cap_gbps << " Gbps\n";
      }
    }
  }

  // --- The contract, as the service team sees it. -------------------------
  const core::EntitlementContract* contract = cycle.contracts.find(NpgId(1));
  std::cout << "\nContract for " << contract->npg_name
            << " (SLO availability " << contract->slo_availability << "):\n";
  for (const auto& entitlement : contract->entitlements) {
    std::cout << "  <Ads, " << to_string(entitlement.qos) << ", "
              << topo.region(entitlement.region).name << ", "
              << entitlement.entitled_rate.value() << " Gbps, "
              << to_string(entitlement.direction) << ", day 0-90>\n";
  }

  // --- Run-time enforcement hooks straight off the database. --------------
  enforce::RateStore store(enforce::RateStore::AggregateMode::kExactOrdered, 1.0);
  enforce::BpfClassifier classifier{enforce::Marker(enforce::MarkingMode::host_based)};
  enforce::HostAgent agent(HostId(1), NpgId(1), QosClass::c1_low, enforce::AgentConfig{},
                           std::make_unique<enforce::StatefulMeter>(),
                           cycle.contracts.query_adapter(), store, classifier);

  // The service misbehaves: it sends 3x its entitlement.
  const Gbps entitled = *cycle.contracts.service_entitled_rate(NpgId(1), QosClass::c1_low, 0.0);
  const Gbps misbehaving = entitled * 3.0;
  agent.observe_local(misbehaving, misbehaving);
  agent.tick(0.0);   // publish
  agent.tick(10.0);  // metering cycle sees the aggregate
  std::cout << "\nEnforcement: service sends " << misbehaving.value() << " Gbps against "
            << entitled.value() << " Gbps entitled -> agent marks "
            << agent.non_conform_ratio() * 100.0
            << "% of traffic non-conforming (DSCP " << int{enforce::kNonConformingDscp}
            << ", lowest-priority queue).\n";
  return 0;
}
