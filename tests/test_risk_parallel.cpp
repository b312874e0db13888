// Serial-vs-parallel equivalence of the risk-scenario sweep: for every
// thread count the availability curves (and the SLO attainments of
// ApprovalEngine::verify) must be BIT-identical to the serial sweep — the
// determinism guarantee the parallel fan-out is built around.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "approval/approval.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "risk/simulator.h"
#include "topology/generator.h"

namespace netent::risk {
namespace {

using topology::Demand;
using topology::Router;
using topology::Topology;

struct Sweep {
  Topology topo;
  std::vector<FailureScenario> scenarios;
  std::vector<Demand> pipes;

  Sweep() {
    Rng rng(1234);
    topology::GeneratorConfig config;
    config.region_count = 8;
    config.base_capacity = Gbps(400);
    config.max_parallel_fibers = 2;
    topo = topology::generate_backbone(config, rng);

    ScenarioConfig scenario_config;
    scenario_config.max_simultaneous = 2;
    scenarios = enumerate_scenarios(topo, scenario_config);

    // A demanding cross-region batch so placements actually contend.
    for (std::uint32_t s = 0; s < topo.region_count(); ++s) {
      for (std::uint32_t d = 0; d < topo.region_count(); ++d) {
        if (s == d) continue;
        pipes.push_back({RegionId(s), RegionId(d), Gbps(40.0 + 10.0 * ((s + d) % 5))});
      }
    }
  }
};

void expect_curves_bit_identical(const std::vector<AvailabilityCurve>& a,
                                 const std::vector<AvailabilityCurve>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lhs = a[i].outcomes();
    const auto rhs = b[i].outcomes();
    ASSERT_EQ(lhs.size(), rhs.size()) << "pipe " << i;
    for (std::size_t k = 0; k < lhs.size(); ++k) {
      // Exact double equality: the parallel merge must replay the serial
      // outcome sequence bit for bit.
      ASSERT_EQ(lhs[k].first, rhs[k].first) << "pipe " << i << " outcome " << k;
      ASSERT_EQ(lhs[k].second, rhs[k].second) << "pipe " << i << " outcome " << k;
    }
  }
}

TEST(RiskParallel, AvailabilityCurvesBitIdenticalAcrossThreadCounts) {
  Sweep sweep;
  ASSERT_GT(sweep.scenarios.size() * sweep.pipes.size(), kFanOutCutoffPlacements)
      << "sweep too small to exercise the pool";

  Router router(sweep.topo, 3);
  const RiskSimulator sim(router, sweep.scenarios, router.full_capacities());
  const auto serial = sim.availability_curves(sweep.pipes, 1);

  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = sim.availability_curves(sweep.pipes, threads);
    expect_curves_bit_identical(serial, parallel);
  }
}

// The utilization gauge is each worker slot's span from its first placement
// to its last, over the slots times the fan-out's wall: a share, whatever
// the thread count or however slow the sampled placements run.
TEST(RiskParallel, UtilizationGaugeStaysAShareOfTheFanOut) {
  if (!obs::kEnabled) GTEST_SKIP() << "NETENT_OBS=OFF build";
  Sweep sweep;
  ASSERT_GT(sweep.scenarios.size() * sweep.pipes.size(), kFanOutCutoffPlacements);
  Router router(sweep.topo, 3);
  const RiskSimulator sim(router, sweep.scenarios, router.full_capacities());
  obs::Gauge& utilization =
      obs::Registry::global().gauge("risk.sweep.utilization_pct", /*timing=*/true);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    utilization.reset();
    (void)sim.availability_curves(sweep.pipes, threads);
    EXPECT_GT(utilization.value(), 0.0) << threads << " threads";
    EXPECT_LE(utilization.value(), 100.0) << threads << " threads";
  }
}

TEST(RiskParallel, ParallelSweepMatchesOnReducedBaseCapacity) {
  Sweep sweep;
  ASSERT_GT(sweep.scenarios.size() * sweep.pipes.size(), kFanOutCutoffPlacements);
  Router router(sweep.topo, 3);
  std::vector<double> reduced(sweep.topo.link_count());
  for (const topology::Link& link : sweep.topo.links()) {
    reduced[link.id.value()] = 0.5 * link.capacity.value();
  }
  const RiskSimulator sim(router, sweep.scenarios, reduced);
  const auto serial = sim.availability_curves(sweep.pipes, 1);
  const auto parallel = sim.availability_curves(sweep.pipes, 8);
  expect_curves_bit_identical(serial, parallel);
}

TEST(RiskParallel, RepeatedParallelSweepsAreStable) {
  // Replaying the same parallel sweep twice must give the same bits — no
  // dependence on scheduling order.
  Sweep sweep;
  ASSERT_GT(sweep.scenarios.size() * sweep.pipes.size(), kFanOutCutoffPlacements);
  Router router(sweep.topo, 3);
  const RiskSimulator sim(router, sweep.scenarios, router.full_capacities());
  const auto first = sim.availability_curves(sweep.pipes, 4);
  const auto second = sim.availability_curves(sweep.pipes, 4);
  expect_curves_bit_identical(first, second);
}

TEST(RiskParallel, RouteWarmedMatchesRoute) {
  Sweep sweep;
  Router lazy_router(sweep.topo, 3);
  Router warmed_router(sweep.topo, 3);
  warmed_router.warm(sweep.pipes);
  const auto caps = lazy_router.full_capacities();
  const auto expected = lazy_router.route(sweep.pipes, caps);
  const auto actual =
      static_cast<const Router&>(warmed_router).route_warmed(sweep.pipes, caps);
  ASSERT_EQ(expected.placed_per_demand.size(), actual.placed_per_demand.size());
  for (std::size_t i = 0; i < expected.placed_per_demand.size(); ++i) {
    EXPECT_EQ(expected.placed_per_demand[i], actual.placed_per_demand[i]);
  }
  EXPECT_EQ(expected.placed_total.value(), actual.placed_total.value());
  EXPECT_EQ(expected.link_load, actual.link_load);
}

TEST(RiskParallel, RouteWarmedRequiresWarmedPairs) {
  Sweep sweep;
  const Router router(sweep.topo, 3);  // nothing cached
  const std::span<const double> caps = router.full_capacities();
  const std::vector<Demand> demands{{RegionId(0), RegionId(1), Gbps(10)}};
  EXPECT_THROW((void)router.route_warmed(demands, caps), ContractViolation);
}

TEST(RiskParallel, SloVerifierAttainmentsBitIdenticalAcrossThreadCounts) {
  Sweep sweep;
  Router router(sweep.topo, 3);

  approval::ApprovalConfig config;
  config.slo_availability = 0.999;
  config.exec.threads = 1;
  const approval::ApprovalEngine engine(router, config);
  std::vector<hose::PipeRequest> requests;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const auto s = i % static_cast<std::uint32_t>(sweep.topo.region_count());
    const auto d = (i + 1) % static_cast<std::uint32_t>(sweep.topo.region_count());
    requests.push_back({NpgId(i), static_cast<QosClass>(i % kQosClassCount), RegionId(s),
                        RegionId(d), Gbps(30.0 + i)});
  }
  const auto approvals = engine.pipe_approval(requests);
  // The verifier replays only pipes approved above zero.
  const auto replayed = static_cast<std::size_t>(
      std::count_if(approvals.begin(), approvals.end(),
                    [](const approval::PipeApprovalResult& a) { return a.approved.value() > 0.0; }));
  ASSERT_GT(replayed * sweep.scenarios.size(), kFanOutCutoffPlacements);

  const auto serial = engine.verify(approvals, 1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = engine.verify(approvals, threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_EQ(serial[k].achieved_availability, parallel[k].achieved_availability);
      EXPECT_EQ(serial[k].approved.value(), parallel[k].approved.value());
      EXPECT_EQ(serial[k].request.npg, parallel[k].request.npg);
    }
  }
}

}  // namespace
}  // namespace netent::risk
