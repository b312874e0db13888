// Failure injection across the enforcement plane: the paper's reliability
// requirement (§5: "a failure of the enforcement system can result in the
// contract not being honored") demands graceful degradation. These tests
// kill agents, stall publishers, and expire contracts mid-flight, and check
// the fleet-level behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/contract_db.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/dscp.h"

namespace netent::enforce {
namespace {

constexpr NpgId kSvc{1};
constexpr QosClass kQos = QosClass::c2_low;

EntitlementQuery fixed_entitlement(double gbps) {
  return [gbps](NpgId, QosClass, double) { return EntitlementAnswer{true, Gbps(gbps)}; };
}

struct Fleet {
  RateStore store{RateStore::AggregateMode::kExactOrdered, 1.0};
  Marker marker{MarkingMode::host_based};
  std::vector<BpfClassifier> classifiers;
  std::vector<std::unique_ptr<HostAgent>> agents;

  Fleet(std::size_t hosts, double entitled) {
    classifiers.assign(hosts, BpfClassifier(marker));
    for (std::uint32_t h = 0; h < hosts; ++h) {
      agents.push_back(std::make_unique<HostAgent>(
          HostId(h), kSvc, kQos, AgentConfig{5.0, 5.0},
          std::make_unique<StatefulMeter>(2.0, 0.5), fixed_entitlement(entitled), store,
          classifiers[h]));
    }
  }

  /// One fleet tick; hosts in `dead_agents` send traffic but their agents
  /// neither publish nor meter (crashed agent, §5 reliability hazard).
  double tick(double t, double per_host, const std::vector<bool>& dead_agents) {
    double conform = 0.0;
    for (std::uint32_t h = 0; h < agents.size(); ++h) {
      const EgressMeta meta{kSvc, kQos, HostId(h), 0};
      const bool conforming = classifiers[h].classify(meta) != kNonConformingDscp;
      conform += conforming ? per_host : 0.0;
      if (!dead_agents[h]) {
        agents[h]->observe_local(Gbps(per_host),
                                 Gbps(conforming ? per_host : per_host * 0.05));
        agents[h]->tick(t);
      }
    }
    return conform;
  }
};

TEST(FailureInjection, DeadAgentsFreezeButFleetStillEnforcesApproximately) {
  // 30% of agents crash at t=100s. Their hosts keep sending at whatever
  // marking was last programmed; the surviving agents keep metering against
  // the (stale-inclusive) aggregate and hold the service near the
  // entitlement.
  const std::size_t hosts = 40;
  const double entitled = 400.0;
  const double per_host = 20.0;  // 800 total = 2x entitlement
  Fleet fleet(hosts, entitled);

  std::vector<bool> dead(hosts, false);
  double conform = 0.0;
  for (double t = 0.0; t < 600.0; t += 5.0) {
    if (t >= 100.0) {
      for (std::uint32_t h = 0; h < hosts; ++h) dead[h] = h % 3 == 0;
    }
    conform = fleet.tick(t, per_host, dead);
  }
  EXPECT_NEAR(conform, entitled, entitled * 0.35)
      << "fleet must stay near the entitlement despite 1/3 dead agents";
}

TEST(FailureInjection, AllAgentsDeadMeansMarkingFreezes) {
  // Total enforcement outage: the last programmed marking persists (the
  // kernel stage needs no userspace), so conforming traffic stays bounded
  // at the pre-outage level instead of reverting to unlimited.
  const std::size_t hosts = 20;
  const double entitled = 200.0;
  const double per_host = 20.0;  // 400 total
  Fleet fleet(hosts, entitled);

  std::vector<bool> dead(hosts, false);
  for (double t = 0.0; t <= 300.0; t += 5.0) fleet.tick(t, per_host, dead);

  dead.assign(hosts, true);
  const double frozen = fleet.tick(305.0, per_host, dead);
  double after = frozen;
  for (double t = 310.0; t < 500.0; t += 5.0) after = fleet.tick(t, per_host, dead);
  EXPECT_NEAR(after, frozen, 1e-9) << "marking must freeze, not reset";
  EXPECT_LT(after, 400.0) << "outage must not unmark everything";
  EXPECT_NEAR(after, entitled, entitled * 0.25) << "frozen near the pre-outage equilibrium";
}

TEST(FailureInjection, StalePublisherCountsAtLastValue) {
  // A host that stops publishing keeps its last sample visible: the
  // aggregate does not silently shrink (which would un-throttle everyone).
  RateStore store(RateStore::AggregateMode::kExactOrdered, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(100), Gbps(100), 10.0);
  store.publish(kSvc, kQos, HostId(2), Gbps(100), Gbps(100), 10.0);
  // Host 2 goes silent; much later the aggregate still includes it.
  store.publish(kSvc, kQos, HostId(1), Gbps(100), Gbps(100), 500.0);
  EXPECT_EQ(store.read(kSvc, kQos, 500.0).total, Gbps(200));
}

TEST(FailureInjection, ContractExpiryUnprogramsEnforcement) {
  // The contract period ends mid-run: the agent's next metering cycle must
  // remove the kernel entry so traffic is no longer remarked.
  core::ContractDb db;
  core::EntitlementContract contract;
  contract.npg = kSvc;
  contract.slo_availability = 0.999;
  contract.entitlements.push_back({kSvc, kQos, RegionId(0), hose::Direction::egress,
                                   Gbps(50), core::Period{0.0, 100.0}});
  db.add(std::move(contract));

  RateStore store(RateStore::AggregateMode::kExactOrdered, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                  std::make_unique<StatefulMeter>(), db.query_adapter(), store, classifier);

  // Over-entitlement while the contract is active: marking happens.
  agent.observe_local(Gbps(200), Gbps(200));
  agent.tick(0.0);
  agent.observe_local(Gbps(200), Gbps(200));
  agent.tick(10.0);
  EXPECT_EQ(classifier.map_size(), 1u);

  // After expiry the entry is removed and traffic keeps its class DSCP.
  agent.tick(110.0);
  EXPECT_EQ(classifier.map_size(), 0u);
  const EgressMeta meta{kSvc, kQos, HostId(1), 0};
  EXPECT_EQ(classifier.classify(meta), dscp_for(kQos));
}

TEST(FailureInjection, MeterSurvivesAggregateDropouts) {
  // The visible aggregate intermittently reads zero (store partition): the
  // stateful meter treats zero-total as in-conformance and recovers, then
  // re-throttles when data returns — bounded oscillation, no crash, ratio
  // stays in [0, 1].
  StatefulMeter meter;
  for (int cycle = 0; cycle < 60; ++cycle) {
    const bool partition = cycle % 5 == 4;
    const double total = partition ? 0.0 : 800.0;
    const double conform = partition ? 0.0 : 800.0 * meter.conform_ratio();
    meter.update({Gbps(total), Gbps(conform), Gbps(400)});
    EXPECT_GE(meter.conform_ratio(), 0.0);
    EXPECT_LE(meter.conform_ratio(), 1.0);
  }
}

}  // namespace
}  // namespace netent::enforce
