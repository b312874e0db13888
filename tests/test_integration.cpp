// End-to-end integration: a synthetic fleet on a generated backbone goes
// through the full entitlement cycle (forecast -> hose -> approval ->
// contract), and the resulting contract is then enforced by the distributed
// agent plane against an over-entitlement traffic surge.
#include <gtest/gtest.h>

#include <memory>

#include "core/manager.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/dscp.h"
#include "enforce/switchport.h"
#include "topology/generator.h"

namespace netent {
namespace {

using namespace netent::core;

struct Pipeline {
  topology::Topology topo;
  std::vector<traffic::ServiceProfile> fleet;
  CycleResult cycle;

  Pipeline() {
    Rng rng(99);
    topology::GeneratorConfig topo_config;
    topo_config.region_count = 6;
    topo_config.base_capacity = Gbps(800);
    topo = topology::generate_backbone(topo_config, rng);

    traffic::FleetConfig fleet_config;
    fleet_config.service_count = 6;
    fleet_config.region_count = 6;
    fleet_config.total_gbps = 900.0;
    fleet_config.high_touch_count = 2;
    fleet = traffic::generate_fleet(fleet_config, rng);

    const auto histories = synthesize_histories(fleet, 45, 3600.0,
                                                traffic::DailyAggregate::max_avg_6h, 0.5, rng);

    ManagerConfig config;
    config.approval.realizations = 3;
    config.approval.slo_availability = 0.99;
    config.approval.scenarios.min_probability = 1e-7;
    config.forecaster.prophet.use_yearly = false;
    config.high_touch_npgs = {0, 1};
    EntitlementManager manager(topo, config);
    manager.set_name_lookup([this](NpgId npg) {
      return npg.value() < fleet.size() ? fleet[npg.value()].name : std::string("?");
    });
    cycle = manager.run_cycle(histories, rng);
  }
};

Pipeline& pipeline() {
  static Pipeline instance;
  return instance;
}

TEST(Integration, CycleProducesNonTrivialContracts) {
  const auto& cycle = pipeline().cycle;
  EXPECT_GT(cycle.contracts.size(), 0u);
  double total_entitled = 0.0;
  for (const auto& contract : cycle.contracts.contracts()) {
    for (const auto& entitlement : contract.entitlements) {
      total_entitled += entitlement.entitled_rate.value();
    }
  }
  EXPECT_GT(total_entitled, 0.0);
}

TEST(Integration, ContractNamesResolved) {
  const auto& cycle = pipeline().cycle;
  const auto* contract = cycle.contracts.find(NpgId(0));
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->npg_name, "Coldstorage");
}

TEST(Integration, ApprovedNeverExceedsRequested) {
  for (const auto& approval : pipeline().cycle.approvals) {
    EXPECT_LE(approval.approved.value(), approval.request.rate.value() + 1e-6);
  }
}

TEST(Integration, ContractDrivesEnforcementConvergence) {
  // Take NPG 0's contract and run the agent plane against a demand of twice
  // the entitled rate: the conforming rate must converge to the entitlement.
  const auto& cycle = pipeline().cycle;
  const auto query = cycle.contracts.query_adapter();

  // Find a (qos) with a non-zero egress entitlement for NPG 0.
  QosClass qos = QosClass::c1_low;
  Gbps entitled(0);
  for (const QosClass candidate : qos_priority_order()) {
    const auto answer = query(NpgId(0), candidate, 10.0);
    if (answer.found && answer.entitled_rate > Gbps(1)) {
      qos = candidate;
      entitled = answer.entitled_rate;
      break;
    }
  }
  ASSERT_GT(entitled.value(), 0.0) << "no usable entitlement found";

  const std::size_t hosts = 30;
  const double demand = 2.0 * entitled.value();
  const double per_host = demand / static_cast<double>(hosts);

  enforce::RateStore store(enforce::RateStore::AggregateMode::kExactOrdered, 1.0);
  const enforce::Marker marker(enforce::MarkingMode::host_based);
  std::vector<enforce::BpfClassifier> classifiers(hosts, enforce::BpfClassifier(marker));
  std::vector<std::unique_ptr<enforce::HostAgent>> agents;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    agents.push_back(std::make_unique<enforce::HostAgent>(
        HostId(h), NpgId(0), qos, enforce::AgentConfig{5.0, 5.0},
        std::make_unique<enforce::StatefulMeter>(), query, store, classifiers[h]));
  }

  double conform_total = 0.0;
  for (double t = 0.0; t < 300.0; t += 5.0) {
    conform_total = 0.0;
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const enforce::EgressMeta meta{NpgId(0), qos, HostId(h), 0};
      const bool conforming =
          classifiers[h].classify(meta) != enforce::kNonConformingDscp;
      conform_total += conforming ? per_host : 0.0;
      agents[h]->observe_local(Gbps(per_host), Gbps(conforming ? per_host : 0.0));
    }
    for (auto& agent : agents) agent->tick(t);
  }
  EXPECT_NEAR(conform_total, entitled.value(), entitled.value() * 0.25);
}

// --- determinism replay -----------------------------------------------
// The full forecast -> hose -> approval -> enforce cycle must replay
// bit-identically from a fixed seed, across runs and across risk-sweep
// thread counts (the parallel sweep's determinism guarantee, end to end).

CycleResult run_seeded_cycle(std::size_t sweep_threads, std::uint64_t seed) {
  Rng rng(seed);
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 5;
  topo_config.base_capacity = Gbps(600);
  const topology::Topology topo = topology::generate_backbone(topo_config, rng);

  traffic::FleetConfig fleet_config;
  fleet_config.service_count = 4;
  fleet_config.region_count = 5;
  fleet_config.total_gbps = 600.0;
  fleet_config.high_touch_count = 2;
  const auto fleet = traffic::generate_fleet(fleet_config, rng);
  const auto histories = synthesize_histories(fleet, 30, 3600.0,
                                              traffic::DailyAggregate::max_avg_6h, 0.5, rng);

  ManagerConfig config;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.min_probability = 1e-7;
  config.approval.exec.threads = sweep_threads;
  config.forecaster.prophet.use_yearly = false;
  config.high_touch_npgs = {0, 1};
  const EntitlementManager manager(topo, config);
  return manager.run_cycle(histories, rng);
}

void expect_identical_cycles(const CycleResult& a, const CycleResult& b) {
  // Approval decisions: same requests, bit-identical approved rates.
  ASSERT_EQ(a.approvals.size(), b.approvals.size());
  for (std::size_t i = 0; i < a.approvals.size(); ++i) {
    EXPECT_EQ(a.approvals[i].request.npg, b.approvals[i].request.npg);
    EXPECT_EQ(a.approvals[i].request.qos, b.approvals[i].request.qos);
    EXPECT_EQ(a.approvals[i].request.region, b.approvals[i].request.region);
    EXPECT_EQ(a.approvals[i].request.direction, b.approvals[i].request.direction);
    EXPECT_EQ(a.approvals[i].request.rate.value(), b.approvals[i].request.rate.value());
    EXPECT_EQ(a.approvals[i].approved.value(), b.approvals[i].approved.value()) << "pipe " << i;
  }
  // Contracts (what enforcement consumes): identical entitlements.
  ASSERT_EQ(a.contracts.size(), b.contracts.size());
  const auto& contracts_a = a.contracts.contracts();
  const auto& contracts_b = b.contracts.contracts();
  for (std::size_t c = 0; c < contracts_a.size(); ++c) {
    EXPECT_EQ(contracts_a[c].npg, contracts_b[c].npg);
    ASSERT_EQ(contracts_a[c].entitlements.size(), contracts_b[c].entitlements.size());
    for (std::size_t e = 0; e < contracts_a[c].entitlements.size(); ++e) {
      EXPECT_EQ(contracts_a[c].entitlements[e].entitled_rate.value(),
                contracts_b[c].entitlements[e].entitled_rate.value());
    }
  }
}

TEST(Integration, DeterministicReplayAcrossRuns) {
  const CycleResult first = run_seeded_cycle(1, 2024);
  const CycleResult second = run_seeded_cycle(1, 2024);
  expect_identical_cycles(first, second);
}

TEST(Integration, DeterministicReplayAcrossThreadCounts) {
  const CycleResult serial = run_seeded_cycle(1, 2024);
  for (const std::size_t threads : {2u, 8u}) {
    const CycleResult parallel = run_seeded_cycle(threads, 2024);
    expect_identical_cycles(serial, parallel);
  }
}

TEST(Integration, SwitchProtectsConformingAtContractLoad) {
  // Offered load at exactly the contract level in the conforming queue plus
  // an equal non-conforming burst on a port sized to the contract: the
  // conforming side must see zero drops.
  const auto& cycle = pipeline().cycle;
  double entitled = 0.0;
  for (const auto& contract : cycle.contracts.contracts()) {
    entitled += contract.total_entitled(QosClass::c2_low, hose::Direction::egress).value();
  }
  if (entitled <= 0.0) entitled = 100.0;  // fall back to a nominal port size

  const enforce::PriorityQueueSwitch port{Gbps(entitled)};
  std::vector<double> offered(enforce::kQueueCount, 0.0);
  offered[enforce::queue_for(enforce::dscp_for(QosClass::c2_low))] = entitled;
  offered[enforce::kNonConformingQueue] = entitled;
  const auto outcomes = port.transmit(offered);
  EXPECT_NEAR(outcomes[enforce::queue_for(enforce::dscp_for(QosClass::c2_low))].dropped_gbps,
              0.0, 1e-9);
  EXPECT_NEAR(outcomes[enforce::kNonConformingQueue].dropped_gbps, entitled, 1e-9);
}

}  // namespace
}  // namespace netent
