#include "enforce/agent.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "enforce/bpf.h"
#include "enforce/dscp.h"

namespace netent::enforce {
namespace {

constexpr NpgId kSvc{1};
constexpr QosClass kQos = QosClass::c2_low;
constexpr auto kExact = RateStore::AggregateMode::kExactOrdered;

EntitlementQuery fixed_entitlement(double gbps) {
  return [gbps](NpgId, QosClass, double) { return EntitlementAnswer{true, Gbps(gbps)}; };
}

EntitlementQuery no_entitlement() {
  return [](NpgId, QosClass, double) { return EntitlementAnswer{false, Gbps(0)}; };
}

TEST(HostAgent, PublishesAndMetersOnSchedule) {
  RateStore store(kExact, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                  std::make_unique<StatefulMeter>(), fixed_entitlement(100.0), store,
                  classifier);
  agent.observe_local(Gbps(50), Gbps(50));
  EXPECT_TRUE(agent.tick(0.0));       // first tick: metering due
  EXPECT_FALSE(agent.tick(5.0));      // publish only
  EXPECT_FALSE(agent.tick(9.0));      // nothing due
  EXPECT_TRUE(agent.tick(10.0));      // metering due again
  EXPECT_EQ(store.read(kSvc, kQos, 10.0).total, Gbps(50));
}

TEST(HostAgent, NoContractUnprogramsClassifier) {
  RateStore store(kExact, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 0.5);  // stale entry
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{}, std::make_unique<StatefulMeter>(),
                  no_entitlement(), store, classifier);
  agent.observe_local(Gbps(10), Gbps(10));
  agent.tick(0.0);
  EXPECT_EQ(classifier.map_size(), 0u);
}

TEST(HostAgent, FleetConvergesToEntitlement) {
  // End-to-end control loop: 20 hosts, 10 Gbps demand each (200 total),
  // entitled 100. After several metering cycles the conforming share must
  // settle at ~0.5.
  const std::size_t hosts = 20;
  const double per_host = 10.0;
  const double entitled = 100.0;
  RateStore store(kExact, 1.0);
  const Marker marker(MarkingMode::host_based);
  std::vector<BpfClassifier> classifiers(hosts, BpfClassifier(marker));
  std::vector<std::unique_ptr<HostAgent>> agents;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    agents.push_back(std::make_unique<HostAgent>(
        HostId(h), kSvc, kQos, AgentConfig{5.0, 5.0}, std::make_unique<StatefulMeter>(),
        fixed_entitlement(entitled), store, classifiers[h]));
  }

  double conform_total = 0.0;
  for (double t = 0.0; t < 200.0; t += 5.0) {
    conform_total = 0.0;
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const EgressMeta meta{kSvc, kQos, HostId(h), 0};
      const bool conforming = classifiers[h].classify(meta) != kNonConformingDscp;
      const double conform = conforming ? per_host : 0.0;
      conform_total += conform;
      // No congestion: everything sent is delivered.
      agents[h]->observe_local(Gbps(per_host), Gbps(conform));
    }
    for (auto& agent : agents) agent->tick(t);
  }
  EXPECT_NEAR(conform_total, entitled, 25.0);
}

TEST(HostAgent, AgentsShareStateOnlyViaStore) {
  // Two agents of the same service: each sees the aggregate, not only its
  // own rate.
  RateStore store(kExact, 0.0);
  const Marker marker(MarkingMode::host_based);
  BpfClassifier c1{marker};
  BpfClassifier c2{marker};
  HostAgent a1(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
               std::make_unique<StatefulMeter>(), fixed_entitlement(100.0), store, c1);
  HostAgent a2(HostId(2), kSvc, kQos, AgentConfig{10.0, 5.0},
               std::make_unique<StatefulMeter>(), fixed_entitlement(100.0), store, c2);
  a1.observe_local(Gbps(80), Gbps(80));
  a2.observe_local(Gbps(80), Gbps(80));
  a1.tick(0.0);
  a2.tick(0.0);
  // Aggregate 160 > 100: both classifiers must now hold a non-zero ratio.
  a1.observe_local(Gbps(80), Gbps(80));
  a2.observe_local(Gbps(80), Gbps(80));
  a1.tick(10.0);
  a2.tick(10.0);
  EXPECT_EQ(c1.map_size(), 1u);
  EXPECT_EQ(c2.map_size(), 1u);
}

TEST(HostAgent, HysteresisSuppressesSmallReprogramming) {
  RateStore store(kExact, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based, 1000)};
  AgentConfig config{10.0, 5.0};
  config.ratio_hysteresis = 0.05;
  HostAgent agent(HostId(1), kSvc, kQos, config, std::make_unique<StatefulMeter>(),
                  fixed_entitlement(100.0), store, classifier);
  // First cycle programs (200 observed vs 100 entitled -> ratio 0.5).
  agent.observe_local(Gbps(200), Gbps(200));
  agent.tick(0.0);
  const EgressMeta probe{kSvc, kQos, HostId(42), 0};
  const std::uint8_t before = classifier.classify(probe);
  // Next cycle's ratio moves by ~2% (conform 102 vs entitled 100): within
  // hysteresis, so the kernel map must stay untouched.
  agent.observe_local(Gbps(202), Gbps(102));
  agent.tick(10.0);
  agent.observe_local(Gbps(202), Gbps(102));
  agent.tick(20.0);
  EXPECT_EQ(classifier.classify(probe), before);
}

TEST(HostAgent, EventApiMatchesTickSchedule) {
  // Driving the agent with publish_now / run_metering at the times tick()
  // would have chosen produces the same store and classifier state — this is
  // what lets the event engine's per-agent timers replace the lockstep sweep.
  const Marker marker(MarkingMode::host_based, 1000);
  RateStore tick_store(kExact, 0.0);
  BpfClassifier tick_classifier{marker};
  HostAgent tick_agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                       std::make_unique<StatefulMeter>(), fixed_entitlement(100.0),
                       tick_store, tick_classifier);
  RateStore event_store(kExact, 0.0);
  BpfClassifier event_classifier{marker};
  HostAgent event_agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                        std::make_unique<StatefulMeter>(), fixed_entitlement(100.0),
                        event_store, event_classifier);
  for (double t = 0.0; t <= 40.0; t += 5.0) {
    tick_agent.observe_local(Gbps(200), Gbps(200));
    event_agent.observe_local(Gbps(200), Gbps(200));
    tick_agent.tick(t);
    event_agent.publish_now(t);                                // 5 s cadence
    if (std::fmod(t, 10.0) == 0.0) event_agent.run_metering(t);  // 10 s cadence
  }
  const EgressMeta probe{kSvc, kQos, HostId(7), 3};
  EXPECT_EQ(tick_classifier.classify(probe), event_classifier.classify(probe));
  EXPECT_EQ(tick_store.read(kSvc, kQos, 40.0).total.value(),
            event_store.read(kSvc, kQos, 40.0).total.value());
  EXPECT_EQ(tick_agent.non_conform_ratio(), event_agent.non_conform_ratio());
}

TEST(HostAgent, RestartForgetsMeterStateButKernelMapPersists) {
  RateStore store(kExact, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based, 1000)};
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                  std::make_unique<StatefulMeter>(), fixed_entitlement(100.0), store,
                  classifier);
  agent.observe_local(Gbps(200), Gbps(200));
  agent.tick(0.0);
  agent.observe_local(Gbps(200), Gbps(100));
  agent.tick(10.0);
  EXPECT_GT(agent.non_conform_ratio(), 0.0);
  EXPECT_EQ(classifier.map_size(), 1u);

  agent.restart();
  // The agent process forgot its control state...
  EXPECT_EQ(agent.non_conform_ratio(), 0.0);
  // ...but the kernel classifier still enforces the last programmed ratio:
  // conforming traffic stays protected while the agent is down (§6).
  EXPECT_EQ(classifier.map_size(), 1u);

  // After restart the next tick is due immediately (fresh interval clocks)
  // and reprograms unconditionally once the meter re-learns the overage.
  agent.observe_local(Gbps(200), Gbps(200));
  EXPECT_TRUE(agent.tick(20.0));
  agent.observe_local(Gbps(200), Gbps(100));
  EXPECT_TRUE(agent.tick(30.0));
  EXPECT_GT(agent.non_conform_ratio(), 0.0);
}

TEST(HostAgent, WorksAgainstEventRateStore) {
  // The agent runs unchanged when the store's arrivals are applied by
  // deliver() calls, as the drill's arrival events apply them, rather than
  // by its own reads.
  RateStore store(kExact, 5.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based, 1000)};
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{10.0, 5.0},
                  std::make_unique<StatefulMeter>(), fixed_entitlement(100.0), store,
                  classifier);
  agent.observe_local(Gbps(200), Gbps(200));
  agent.publish_now(0.0);
  store.deliver(5.0);
  agent.run_metering(10.0);
  EXPECT_NEAR(agent.non_conform_ratio(), 0.5, 1e-9);
  // Marking took effect: conforming traffic now equals the entitlement, so
  // the loop holds steady.
  agent.observe_local(Gbps(200), Gbps(100));
  agent.publish_now(10.0);
  store.deliver(15.0);
  agent.run_metering(20.0);
  EXPECT_NEAR(agent.non_conform_ratio(), 0.5, 0.05);
  EXPECT_EQ(store.read(kSvc, kQos, 20.0).total, Gbps(200));
}

TEST(HostAgent, InvalidConstructionRejected) {
  RateStore store(kExact, 0.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  EXPECT_THROW(HostAgent(HostId(1), kSvc, kQos, AgentConfig{}, nullptr,
                         fixed_entitlement(1.0), store, classifier),
               ContractViolation);
  EXPECT_THROW(HostAgent(HostId(1), kSvc, kQos, AgentConfig{0.0, 5.0},
                         std::make_unique<StatefulMeter>(), fixed_entitlement(1.0), store,
                         classifier),
               ContractViolation);
}

}  // namespace
}  // namespace netent::enforce
