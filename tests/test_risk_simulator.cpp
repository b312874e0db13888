#include "risk/simulator.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace netent::risk {
namespace {

using topology::Demand;
using topology::RegionKind;
using topology::Router;
using topology::Topology;

TEST(AvailabilityCurve, BasicLookups) {
  // Outcomes: 100 Gbps with p=0.9, 40 Gbps with p=0.08, 0 Gbps with p=0.02.
  AvailabilityCurve curve({{100.0, 0.9}, {40.0, 0.08}, {0.0, 0.02}});
  EXPECT_NEAR(curve.availability_at(Gbps(100)), 0.9, 1e-12);
  EXPECT_NEAR(curve.availability_at(Gbps(50)), 0.9, 1e-12);
  EXPECT_NEAR(curve.availability_at(Gbps(40)), 0.98, 1e-12);
  EXPECT_NEAR(curve.availability_at(Gbps(0)), 1.0, 1e-12);
}

TEST(AvailabilityCurve, BandwidthAtTarget) {
  AvailabilityCurve curve({{100.0, 0.9}, {40.0, 0.08}, {0.0, 0.02}});
  EXPECT_EQ(curve.bandwidth_at(0.9), Gbps(100));
  EXPECT_EQ(curve.bandwidth_at(0.95), Gbps(40));
  EXPECT_EQ(curve.bandwidth_at(0.99), Gbps(0));
}

TEST(AvailabilityCurve, UnenumeratedMassCountsAsDown) {
  // Only 0.95 of mass enumerated: a 0.99 target is unreachable.
  AvailabilityCurve curve({{100.0, 0.95}});
  EXPECT_EQ(curve.bandwidth_at(0.99), Gbps(0));
  EXPECT_EQ(curve.bandwidth_at(0.9), Gbps(100));
}

TEST(AvailabilityCurve, MonotoneInBandwidth) {
  AvailabilityCurve curve({{10.0, 0.2}, {20.0, 0.3}, {30.0, 0.5}});
  double prev = 1.0;
  for (double b = 0.0; b <= 35.0; b += 5.0) {
    const double a = curve.availability_at(Gbps(b));
    EXPECT_LE(a, prev + 1e-12);
    prev = a;
  }
}

TEST(AvailabilityCurve, InvalidInputsRejected) {
  EXPECT_THROW(AvailabilityCurve({}), ContractViolation);
  AvailabilityCurve curve({{1.0, 1.0}});
  EXPECT_THROW((void)curve.bandwidth_at(0.0), ContractViolation);
  EXPECT_THROW((void)curve.bandwidth_at(1.5), ContractViolation);
}

TEST(AvailabilityCurve, EmptyOutcomesRejected) {
  EXPECT_THROW(AvailabilityCurve(std::vector<std::pair<double, double>>{}), ContractViolation);
}

TEST(AvailabilityCurve, TotalMassBelowTargetYieldsZeroBandwidth) {
  // Only 0.75 of the probability mass enumerated (binary-exact values).
  AvailabilityCurve curve({{100.0, 0.5}, {40.0, 0.25}});
  EXPECT_DOUBLE_EQ(curve.total_mass(), 0.75);
  // Any target above the enumerated mass is unreachable, even at 0 Gbps.
  EXPECT_EQ(curve.bandwidth_at(0.80), Gbps(0));
  EXPECT_EQ(curve.bandwidth_at(0.9999), Gbps(0));
  // At exactly the enumerated mass the lowest outcome is still guaranteed.
  EXPECT_EQ(curve.bandwidth_at(0.75), Gbps(40));
}

TEST(AvailabilityCurve, DuplicateBandwidthOutcomesAccumulate) {
  // Two scenarios deliver the same 50 Gbps; their masses must add.
  AvailabilityCurve curve({{50.0, 0.25}, {100.0, 0.5}, {50.0, 0.125}, {0.0, 0.125}});
  EXPECT_DOUBLE_EQ(curve.availability_at(Gbps(100)), 0.5);
  EXPECT_DOUBLE_EQ(curve.availability_at(Gbps(50)), 0.875);
  EXPECT_DOUBLE_EQ(curve.availability_at(Gbps(0)), 1.0);
  // The 0.875 mass at 50 covers a 0.6 target; 100 only covers up to 0.5.
  EXPECT_EQ(curve.bandwidth_at(0.5), Gbps(100));
  EXPECT_EQ(curve.bandwidth_at(0.6), Gbps(50));
}

TEST(AvailabilityCurve, BandwidthAtBoundaries) {
  AvailabilityCurve curve({{100.0, 0.5}, {40.0, 0.25}, {10.0, 0.25}});
  // target == 0.0 is a contract violation (an SLO of zero is meaningless)...
  EXPECT_THROW((void)curve.bandwidth_at(0.0), ContractViolation);
  // ...while target == 1.0 is valid and yields the worst-case outcome.
  EXPECT_EQ(curve.bandwidth_at(1.0), Gbps(10));
  // Just inside the boundary behaves continuously.
  EXPECT_EQ(curve.bandwidth_at(1e-12), Gbps(100));
}

TEST(AvailabilityCurve, OutcomesSortedDescendingWithTotalMass) {
  AvailabilityCurve curve({{10.0, 0.25}, {30.0, 0.5}, {20.0, 0.25}});
  const auto outcomes = curve.outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_DOUBLE_EQ(outcomes[0].first, 30.0);
  EXPECT_DOUBLE_EQ(outcomes[1].first, 20.0);
  EXPECT_DOUBLE_EQ(outcomes[2].first, 10.0);
  EXPECT_DOUBLE_EQ(curve.total_mass(), 1.0);
}

/// Two regions, two parallel fibers with known unavailability.
struct TwoFiberFixture {
  Topology topo;
  TwoFiberFixture() {
    topo.add_region("a", RegionKind::data_center);
    topo.add_region("b", RegionKind::data_center);
    topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 990.0, 10.0);  // u=0.01
    topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 980.0, 20.0);  // u=0.02
  }
};

TEST(RiskSimulator, SingleFiberPipeAvailability) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  ScenarioConfig config;
  config.max_simultaneous = 2;
  RiskSimulator sim(router, enumerate_scenarios(fx.topo, config), router.full_capacities());

  const std::vector<Demand> pipes{{RegionId(0), RegionId(1), Gbps(150)}};
  const auto curves = sim.availability_curves(pipes);
  ASSERT_EQ(curves.size(), 1u);
  // Full 150 needs both fibers: availability = (1-0.01)(1-0.02) = 0.9702.
  EXPECT_NEAR(curves[0].availability_at(Gbps(150)), 0.99 * 0.98, 1e-9);
  // 100 survives any single fiber: availability = 1 - P(both down) mass.
  EXPECT_NEAR(curves[0].availability_at(Gbps(100)), 1.0 - 0.01 * 0.02, 1e-9);
  // At the 0.9998 SLO only 100 Gbps can be guaranteed.
  EXPECT_EQ(curves[0].bandwidth_at(0.97), Gbps(150));
  EXPECT_EQ(curves[0].bandwidth_at(0.9998), Gbps(100));
}

TEST(RiskSimulator, ReducedBaseCapacityLowersCurve) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  const auto scenarios = enumerate_scenarios(fx.topo, ScenarioConfig{});
  std::vector<double> reduced(fx.topo.link_count(), 30.0);
  RiskSimulator sim(router, scenarios, reduced);
  const std::vector<Demand> pipes{{RegionId(0), RegionId(1), Gbps(150)}};
  const auto curves = sim.availability_curves(pipes);
  // At most 60 (two fibers x 30) can ever be placed.
  EXPECT_DOUBLE_EQ(curves[0].bandwidth_at(0.5).value(), 60.0);
}

TEST(RiskSimulator, BatchOrderGivesPriorityWithinBatch) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  RiskSimulator sim(router, enumerate_scenarios(fx.topo, ScenarioConfig{}),
                    router.full_capacities());
  // Two pipes both wanting 150 of the 200 total: the first wins.
  const std::vector<Demand> pipes{{RegionId(0), RegionId(1), Gbps(150)},
                                  {RegionId(0), RegionId(1), Gbps(150)}};
  const auto curves = sim.availability_curves(pipes);
  EXPECT_GT(curves[0].bandwidth_at(0.9).value(), curves[1].bandwidth_at(0.9).value());
}

TEST(RiskSimulator, SharedConduitLowersAvailability) {
  // Same capacity and per-fiber reliability, but the second topology lays
  // both fibers in one conduit: the "redundant" capacity shares fate and the
  // availability of any rate above one fiber's worth collapses toward the
  // single-conduit availability.
  const auto build = [](bool shared) {
    Topology topo;
    topo.add_region("a", RegionKind::data_center);
    topo.add_region("b", RegionKind::data_center);
    const auto first = topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 990.0, 10.0);
    if (shared) {
      topo.add_fiber_in_conduit(RegionId(0), RegionId(1), Gbps(100), first);
    } else {
      topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 990.0, 10.0);
    }
    return topo;
  };

  const auto availability_of_100 = [&](const Topology& topo) {
    Router router(const_cast<Topology&>(topo), 3);
    const RiskSimulator sim(router, enumerate_scenarios(topo, ScenarioConfig{}),
                            router.full_capacities());
    const std::vector<Demand> pipes{{RegionId(0), RegionId(1), Gbps(100)}};
    return sim.availability_curves(pipes)[0].availability_at(Gbps(100));
  };

  const Topology independent = build(false);
  const Topology conduit = build(true);
  // Independent fibers: 100G survives any single cut -> 1 - u1*u2.
  EXPECT_NEAR(availability_of_100(independent), 1.0 - 0.01 * 0.01, 1e-9);
  // Shared conduit: one cut kills both -> availability = 1 - u.
  EXPECT_NEAR(availability_of_100(conduit), 0.99, 1e-9);
}

TEST(RiskSimulator, EmptyPipeBatchRejected) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  RiskSimulator sim(router, enumerate_scenarios(fx.topo, ScenarioConfig{}),
                    router.full_capacities());
  const std::vector<Demand> no_pipes;
  EXPECT_THROW((void)sim.availability_curves(no_pipes), ContractViolation);
}

TEST(RiskSimulator, CurvesForEveryPipe) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  RiskSimulator sim(router, enumerate_scenarios(fx.topo, ScenarioConfig{}),
                    router.full_capacities());
  const std::vector<Demand> pipes{{RegionId(0), RegionId(1), Gbps(10)},
                                  {RegionId(1), RegionId(0), Gbps(10)},
                                  {RegionId(0), RegionId(1), Gbps(10)}};
  EXPECT_EQ(sim.availability_curves(pipes).size(), 3u);
}

TEST(RiskSimulator, ResyncKeepsAValueIdenticalScenarioSetInPlace) {
  TwoFiberFixture fx;
  Router router(fx.topo, 3);
  RiskSimulator sim(router, enumerate_scenarios(fx.topo, ScenarioConfig{}),
                    router.full_capacities());
  const FailureScenario* before = sim.scenarios().data();

  // A freshly enumerated, value-identical set leaves the vector in place, so
  // spans into scenarios() taken before the resync stay valid.
  EXPECT_FALSE(
      sim.resync(enumerate_scenarios(fx.topo, ScenarioConfig{}), router.full_capacities()));
  EXPECT_EQ(sim.scenarios().data(), before);

  // A set of the same size with one probability moved is a change.
  std::vector<FailureScenario> shifted(sim.scenarios().begin(), sim.scenarios().end());
  shifted.back().probability /= 2.0;
  EXPECT_TRUE(sim.resync(shifted, router.full_capacities()));
  EXPECT_EQ(sim.scenarios().back().probability, shifted.back().probability);

  // So is a smaller set.
  ScenarioConfig single;
  single.max_simultaneous = 1;
  EXPECT_TRUE(sim.resync(enumerate_scenarios(fx.topo, single), router.full_capacities()));
  EXPECT_EQ(sim.scenarios().size(), shifted.size() - 1);
}

}  // namespace
}  // namespace netent::risk
