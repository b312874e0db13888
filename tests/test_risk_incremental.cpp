// Equivalence suite for the incremental scenario-replay engine: for every
// checkpoint interval, thread count and sweep mode, the incremental replay
// must be BIT-identical to the full from-scratch placement — the exactness
// guarantee the perf optimisation is built around.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "approval/approval.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/replay.h"
#include "topology/srlg_index.h"

namespace netent::risk {
namespace {

using topology::Demand;
using topology::Router;
using topology::ScenarioSweeper;
using topology::Topology;

struct Sweep {
  Topology topo;
  std::vector<FailureScenario> scenarios;
  std::vector<Demand> pipes;

  explicit Sweep(std::uint64_t seed = 1234, std::uint32_t regions = 8) {
    Rng rng(seed);
    topology::GeneratorConfig config;
    config.region_count = regions;
    config.base_capacity = Gbps(400);
    config.max_parallel_fibers = 2;
    topo = topology::generate_backbone(config, rng);

    ScenarioConfig scenario_config;
    scenario_config.max_simultaneous = 2;
    scenarios = enumerate_scenarios(topo, scenario_config);

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
      ASSERT_EQ(lhs[k].first, rhs[k].first) << "pipe " << i << " outcome " << k;
      ASSERT_EQ(lhs[k].second, rhs[k].second) << "pipe " << i << " outcome " << k;
    }
  }
}

TEST(RiskIncremental, SweeperMatchesFullReplayForEveryCheckpointInterval) {
  Sweep sweep;
  Router router(sweep.topo, 3);
  router.warm(sweep.pipes);
  const Router& warmed = router;
  const std::span<const double> caps = router.full_capacities();
  const topology::SrlgIndex index(sweep.topo);

  for (const std::size_t interval : {1u, 3u, 8u, 1000u}) {
    const ScenarioSweeper sweeper(warmed, sweep.pipes, caps, {interval});
    ScenarioSweeper::Workspace workspace;
    std::vector<double> placed(sweep.pipes.size());
    for (const FailureScenario& scenario : sweep.scenarios) {
      const auto expected =
          warmed.route_warmed(sweep.pipes, scenario_capacities(index, caps, scenario));
      sweeper.replay(scenario.down, workspace, placed);
      ASSERT_EQ(expected.placed_per_demand.size(), placed.size());
      for (std::size_t i = 0; i < placed.size(); ++i) {
        // Exact double equality: the suffix replay must reproduce the
        // from-scratch placement bit for bit.
        ASSERT_EQ(expected.placed_per_demand[i], placed[i])
            << "interval " << interval << " demand " << i;
      }
    }
  }
}

TEST(RiskIncremental, CheckpointCountTracksInterval) {
  Sweep sweep;
  Router router(sweep.topo, 3);
  router.warm(sweep.pipes);
  const std::span<const double> caps = router.full_capacities();

  const ScenarioSweeper every(static_cast<const Router&>(router), sweep.pipes, caps, {1});
  EXPECT_EQ(every.checkpoint_count(), sweep.pipes.size());
  const ScenarioSweeper coarse(static_cast<const Router&>(router), sweep.pipes, caps, {1000});
  EXPECT_EQ(coarse.checkpoint_count(), 1u);
}

TEST(RiskIncremental, CurvesBitIdenticalToFullSweepAcrossThreadsAndTopologies) {
  for (const std::uint64_t seed : {1234ull, 7ull, 20220822ull}) {
    Sweep sweep(seed, seed % 2 == 0 ? 8u : 6u);
    Router router(sweep.topo, 3);
    const RiskSimulator sim(router, sweep.scenarios, router.full_capacities());
    const auto full = sim.availability_curves(sweep.pipes, 1, SweepMode::kFull);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      expect_curves_bit_identical(
          full, sim.availability_curves(sweep.pipes, threads, SweepMode::kIncremental));
      expect_curves_bit_identical(
          full, sim.availability_curves(sweep.pipes, threads, SweepMode::kFull));
    }
  }
}

TEST(RiskIncremental, VerifierAttainmentsBitIdenticalAcrossModes) {
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

  const auto full = engine.verify(approvals, 1, SweepMode::kFull);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto incremental = engine.verify(approvals, threads, SweepMode::kIncremental);
    ASSERT_EQ(full.size(), incremental.size());
    for (std::size_t k = 0; k < full.size(); ++k) {
      EXPECT_EQ(full[k].achieved_availability, incremental[k].achieved_availability);
      EXPECT_EQ(full[k].approved.value(), incremental[k].approved.value());
      EXPECT_EQ(full[k].request.npg, incremental[k].request.npg);
    }
  }
}

TEST(RiskIncremental, ScenarioTouchingNoCachedPathShortCircuits) {
  // Two disjoint fibers; the demand only ever routes over the first, so a
  // failure of the second must short-circuit to the baseline outcome.
  Topology topo;
  const RegionId a = topo.add_region("a", topology::RegionKind::data_center);
  const RegionId b = topo.add_region("b", topology::RegionKind::data_center);
  const RegionId c = topo.add_region("c", topology::RegionKind::pop);
  const RegionId d = topo.add_region("d", topology::RegionKind::pop);
  (void)topo.add_fiber(a, b, Gbps(100), 8760.0, 12.0);
  const LinkId unused = topo.add_fiber(c, d, Gbps(100), 8760.0, 12.0);

  const std::vector<Demand> demands{{a, b, Gbps(60)}};
  Router router(topo, 2);
  router.warm(demands);
  const std::span<const double> caps = router.full_capacities();
  const ScenarioSweeper sweeper(static_cast<const Router&>(router), demands, caps);

  ScenarioSweeper::Workspace workspace;
  std::vector<double> placed(demands.size());
  ScenarioSweeper::ReplayStats stats;

  const std::vector<SrlgId> down{topo.link(unused).srlg};
  sweeper.replay(down, workspace, placed, &stats);
  EXPECT_TRUE(stats.short_circuited);
  EXPECT_EQ(stats.demands_replayed, 0u);
  EXPECT_EQ(stats.demands_skipped, demands.size());
  ASSERT_EQ(sweeper.baseline_placed().size(), placed.size());
  EXPECT_EQ(sweeper.baseline_placed()[0], placed[0]);
  EXPECT_EQ(placed[0], 60.0);

  // The no-failure scenario short-circuits too.
  sweeper.replay({}, workspace, placed, &stats);
  EXPECT_TRUE(stats.short_circuited);
  EXPECT_EQ(placed[0], 60.0);

  // Failing the used fiber replays and places nothing.
  const std::vector<SrlgId> used_down{topo.link(LinkId(0)).srlg};
  sweeper.replay(used_down, workspace, placed, &stats);
  EXPECT_FALSE(stats.short_circuited);
  EXPECT_GT(stats.demands_replayed, 0u);
  EXPECT_EQ(placed[0], 0.0);
}

TEST(RiskIncremental, SweepGuardBlocksLazyPathCacheInsertion) {
  Sweep sweep;
  Router router(sweep.topo, 3);
  const std::vector<Demand> warmed_pair{{RegionId(0), RegionId(1), Gbps(10)}};
  router.warm(warmed_pair);
  {
    const Router::SweepGuard guard(router);
    // Cached pairs stay readable during a sweep...
    EXPECT_NO_THROW((void)router.paths(RegionId(0), RegionId(1)));
    // ...but a cache miss would mutate under concurrent readers: refused.
    EXPECT_THROW((void)router.paths(RegionId(2), RegionId(3)), ContractViolation);
  }
  // Guard released: lazy insertion is allowed again.
  EXPECT_NO_THROW((void)router.paths(RegionId(2), RegionId(3)));
}

TEST(RiskIncremental, ReplayCountersDeterministicAcrossThreadCounts) {
  // The skip/replay split depends only on the scenario and demand sets, so
  // the obs counters must advance identically for every thread count.
  Sweep sweep;
  Router router(sweep.topo, 3);
  const RiskSimulator sim(router, sweep.scenarios, router.full_capacities());

  obs::Registry& reg = obs::Registry::global();
  const auto deltas = [&](std::size_t threads) {
    const std::uint64_t replayed = reg.counter("risk.replay.demands_replayed").value();
    const std::uint64_t skipped = reg.counter("risk.replay.demands_skipped").value();
    const std::uint64_t shorted = reg.counter("risk.replay.scenarios_short_circuited").value();
    (void)sim.availability_curves(sweep.pipes, threads);
    return std::vector<std::uint64_t>{
        reg.counter("risk.replay.demands_replayed").value() - replayed,
        reg.counter("risk.replay.demands_skipped").value() - skipped,
        reg.counter("risk.replay.scenarios_short_circuited").value() - shorted};
  };

  const auto serial = deltas(1);
  EXPECT_EQ(serial, deltas(2));
  EXPECT_EQ(serial, deltas(8));
  if (obs::kEnabled) {
    // Something must actually be skipped for the optimisation to bite.
    EXPECT_GT(serial[1], 0u);
  }
}

TEST(RiskIncremental, CurveLookupsMatchLinearReference) {
  // The binary-searched availability_at / bandwidth_at must return the exact
  // doubles the pre-optimisation linear scans produced.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<double, double>> outcomes;
    const std::size_t n = 1 + rng.uniform_int(40);
    for (std::size_t i = 0; i < n; ++i) {
      outcomes.emplace_back(rng.uniform(0.0, 200.0), rng.uniform(0.0, 0.05));
    }
    const AvailabilityCurve curve(std::move(outcomes));

    const auto ref_availability = [&](Gbps bandwidth) {
      double mass = 0.0;
      for (const auto& [bw, p] : curve.outcomes()) {
        if (bw >= bandwidth.value() - 1e-9) mass += p;
      }
      return mass;
    };
    const auto ref_bandwidth = [&](double target) {
      if (curve.total_mass() < target) return Gbps(0);
      double mass = 0.0;
      for (const auto& [bw, p] : curve.outcomes()) {
        mass += p;
        if (mass >= target) return Gbps(bw);
      }
      return Gbps(curve.outcomes().back().first);
    };

    for (int probe = 0; probe < 50; ++probe) {
      const Gbps bandwidth(rng.uniform(0.0, 220.0));
      EXPECT_EQ(curve.availability_at(bandwidth), ref_availability(bandwidth));
      const double target = rng.uniform(1e-6, 1.0);
      EXPECT_EQ(curve.bandwidth_at(target).value(), ref_bandwidth(target).value());
    }
    // Boundary probes: exact outcome bandwidths and the total mass.
    for (const auto& [bw, p] : curve.outcomes()) {
      EXPECT_EQ(curve.availability_at(Gbps(bw)), ref_availability(Gbps(bw)));
    }
    if (curve.total_mass() > 0.0) {
      EXPECT_EQ(curve.bandwidth_at(curve.total_mass()).value(),
                ref_bandwidth(curve.total_mass()).value());
    }
  }
}

}  // namespace
}  // namespace netent::risk
