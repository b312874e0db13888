// Property suite for the two-tier fast path (risk/fast_estimator.h): across
// >= 1k randomized topology/contract/scenario draws the analytical bound
// must NEVER exceed the exact availability computed by
// sweep_scenario_placements, and a bound clearing the SLO must imply the
// exact tier admits the demand at its full rate. These two facts are the
// entire soundness argument for skipping the exact sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "risk/failure.h"
#include "risk/fast_estimator.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"
#include "topology/topology.h"

namespace netent::risk {
namespace {

using topology::Demand;
using topology::Path;
using topology::Router;
using topology::Topology;

/// One randomized world: a generated backbone, its enumerated failure
/// scenarios and the SRLG index the exact sweep zeroes capacities through.
struct World {
  Topology topo;
  std::vector<FailureScenario> scenarios;
  topology::SrlgIndex index;
  std::vector<double> caps;

  World(Topology t, std::vector<FailureScenario> s)
      : topo(std::move(t)), scenarios(std::move(s)), index(topo) {
    const Router router(topo, 1);  // named: full_capacities() is a view into it
    const std::span<const double> view = router.full_capacities();
    caps.assign(view.begin(), view.end());
  }
};

World make_world(Rng& rng) {
  topology::GeneratorConfig config;
  config.region_count = 4 + rng.uniform_int(4);
  config.base_capacity = Gbps(rng.uniform(150.0, 400.0));
  config.max_parallel_fibers = 1 + rng.uniform_int(2);
  Topology topo = topology::generate_backbone(config, rng);

  ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 1 + rng.uniform_int(2);
  std::vector<FailureScenario> scenarios = enumerate_scenarios(topo, scenario_config);
  return World(std::move(topo), std::move(scenarios));
}

std::vector<Demand> draw_demands(const Topology& topo, std::size_t count, double max_rate,
                                 Rng& rng) {
  std::vector<Demand> demands;
  demands.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    auto dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
    demands.push_back({RegionId(src), RegionId(dst), Gbps(rng.uniform(1.0, max_rate))});
  }
  return demands;
}

/// The placement-free residual family: every scenario's capacities.
std::vector<std::vector<double>> pristine_residuals(const topology::SrlgIndex& index,
                                                    std::span<const double> caps,
                                                    std::span<const FailureScenario> scenarios) {
  std::vector<std::vector<double>> residuals;
  for (const FailureScenario& scenario : scenarios) {
    residuals.push_back(scenario_capacities(index, caps, scenario));
  }
  return residuals;
}

/// The per-scenario residual state after placing `preload` — the state the
/// bound reads. Built with the same water_fill_demand arithmetic the exact
/// sweep uses, so residuals match the sweep's post-preload state bit for
/// bit.
std::vector<std::vector<double>> preloaded_residuals(const Router& router, const World& world,
                                                     std::span<const Demand> preload) {
  std::vector<std::vector<double>> residuals =
      pristine_residuals(world.index, world.caps, world.scenarios);
  for (std::vector<double>& residual : residuals) {
    for (const Demand& demand : preload) {
      const topology::PathList paths = router.cached_paths(demand.src, demand.dst);
      if (!paths.valid()) continue;  // warmed by the caller; never happens
      (void)topology::water_fill_demand(demand.amount.value(), paths, residual, {});
    }
  }
  return residuals;
}

/// The sparse form of `residuals`: scenario 0's, and per group of 64
/// scenarios and link the others whose residual differs from it bit for bit.
SparseResiduals sparse_of(std::span<const std::vector<double>> residuals) {
  constexpr std::size_t kGroup = SparseResiduals::kGroup;
  SparseResiduals sparse;
  sparse.base = residuals[0];
  sparse.groups.resize(SparseResiduals::group_count(residuals.size()));
  for (SparseResiduals::Group& group : sparse.groups) {
    group.differs.assign(sparse.base.size(), 0);
    group.values.resize(sparse.base.size());
  }
  for (std::size_t s = 1; s < residuals.size(); ++s) {
    SparseResiduals::Group& group = sparse.groups[s / kGroup];
    for (std::size_t l = 0; l < sparse.base.size(); ++l) {
      if (SparseResiduals::same_bits(residuals[s][l], sparse.base[l])) continue;
      group.differs[l] |= std::uint64_t{1} << (s % kGroup);
      group.values[l].push_back(residuals[s][l]);
    }
  }
  return sparse;
}

struct PropertyTally {
  std::size_t draws = 0;
  std::size_t bounds_checked = 0;
  std::size_t slo_hits = 0;       ///< bounds that cleared the SLO
  std::size_t zero_bounds = 0;    ///< fast tier declined (fallback)
};

/// Core property check for one draw: every demand's bound is <= its exact
/// availability (joint window placement, input order), and any bound
/// clearing `slo` coincides with an exact full admit.
void check_draw(const World& world, Router& router, std::span<const Demand> preload,
                std::span<const Demand> window, double slo, PropertyTally& tally) {
  std::vector<Demand> all(preload.begin(), preload.end());
  all.insert(all.end(), window.begin(), window.end());
  router.warm(all);

  // Exact oracle: the incremental scenario sweep over preload + window.
  const std::vector<std::vector<double>> placed = sweep_scenario_placements(
      router, all, world.caps, world.index, world.scenarios, /*num_threads=*/1,
      SweepMode::kIncremental);

  std::vector<double> exact_avail(window.size(), 0.0);
  for (std::size_t s = 0; s < world.scenarios.size(); ++s) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      const double want = window[i].amount.value();
      if (placed[s][preload.size() + i] + 1e-9 >= want) {
        exact_avail[i] += world.scenarios[s].probability;
      }
    }
  }

  // Fast tier over the preloaded residual state.
  const SparseResiduals residuals = sparse_of(preloaded_residuals(router, world, preload));
  const FastEstimator fast(world.topo, world.scenarios);

  std::vector<double> consumed(world.caps.size(), 0.0);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const topology::PathList paths = router.cached_paths(window[i].src, window[i].dst);
    ASSERT_TRUE(paths.valid());
    const double bound = fast.bound(window[i].amount.value(), paths, residuals, consumed);
    ++tally.bounds_checked;

    // Property 1: the bound is NEVER above the exact availability.
    ASSERT_LE(bound, exact_avail[i] + 1e-12)
        << "optimistic bound for window demand " << i << " rate "
        << window[i].amount.value();

    // Property 2: bound clears the SLO => the exact tier admits in full.
    if (bound >= slo) {
      ++tally.slo_hits;
      ASSERT_GE(exact_avail[i] + 1e-12, slo)
          << "fast tier admitted demand " << i << " the exact tier would trim";
    }
    if (bound == 0.0) ++tally.zero_bounds;

    // Later window demands see this one's worst-case consumption, exactly
    // as the approval engine charges fast-admitted pipes.
    FastEstimator::charge(window[i].amount.value(), paths, consumed);
  }
  ++tally.draws;
}

// The headline property run: >= 1k randomized draws across topologies,
// scenario depths, preload states and window sizes. Zero bound violations
// tolerated.
TEST(FastEstimatorProperty, BoundNeverExceedsExactAvailabilityAcross1kDraws) {
  constexpr std::size_t kTopologies = 25;
  constexpr std::size_t kDrawsPerTopology = 40;  // 25 * 40 = 1000 draws
  PropertyTally tally;

  for (std::size_t t = 0; t < kTopologies; ++t) {
    Rng rng(0x5eed0000 + t);
    const World world = make_world(rng);
    Router router(world.topo, 3);
    const double max_rate = 0.5 * world.caps[0];

    for (std::size_t d = 0; d < kDrawsPerTopology; ++d) {
      SCOPED_TRACE("topology " + std::to_string(t) + " draw " + std::to_string(d));
      const std::vector<Demand> preload =
          draw_demands(world.topo, rng.uniform_int(4), max_rate, rng);
      const std::vector<Demand> window =
          draw_demands(world.topo, 1 + rng.uniform_int(5), max_rate, rng);
      const double slo = rng.bernoulli(0.5) ? 0.999 : 0.9998;
      check_draw(world, router, preload, window, slo, tally);
      if (HasFatalFailure()) return;
    }
  }

  EXPECT_EQ(tally.draws, kTopologies * kDrawsPerTopology);
  // The suite must exercise both tiers, not vacuously pass: some bounds
  // clear the SLO (fast admits) and some decline (exact fallbacks).
  EXPECT_GT(tally.slo_hits, 0u);
  EXPECT_GT(tally.zero_bounds, 0u);
  EXPECT_GE(tally.bounds_checked, 1000u);
}

// A link's headroom is the alive-scenario minimum itself, checked against a
// direct scan of every down-set: on the enumerated scenarios, with one
// SRLG down in every scenario (its links keep +inf) and a first scenario
// that lists an SRLG twice.
TEST(FastEstimator, HeadroomIsTheMinimumOverScenariosLeavingTheLinkAlive) {
  Rng rng(29);
  const World world = make_world(rng);
  std::vector<FailureScenario> scenarios = world.scenarios;
  const SrlgId always = world.topo.link(LinkId(0)).srlg;
  for (FailureScenario& scenario : scenarios) {
    const auto at = std::lower_bound(scenario.down.begin(), scenario.down.end(), always);
    if (at == scenario.down.end() || *at != always) scenario.down.insert(at, always);
  }
  const SrlgId repeated = world.topo.link(LinkId(2)).srlg;
  std::vector<SrlgId> twice{always, repeated, repeated};
  std::sort(twice.begin(), twice.end());
  scenarios.insert(scenarios.begin(), FailureScenario{twice, 1e-3});

  // Alive cells get arbitrary residuals; dead cells stay 0, below them all.
  std::vector<std::vector<double>> residuals;
  for (const FailureScenario& scenario : scenarios) {
    std::vector<double> residual = scenario_capacities(world.index, world.caps, scenario);
    for (double& r : residual) r *= rng.uniform(0.2, 1.0);
    residuals.push_back(std::move(residual));
  }

  std::vector<double> expected(world.caps.size(), std::numeric_limits<double>::infinity());
  for (std::size_t l = 0; l < world.caps.size(); ++l) {
    const LinkId link(static_cast<std::uint32_t>(l));
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const std::vector<SrlgId>& down = scenarios[s].down;
      if (std::find(down.begin(), down.end(), world.topo.link(link).srlg) == down.end()) {
        expected[l] = std::min(expected[l], residuals[s][l]);
      }
    }
  }

  const FastEstimator fast(world.topo, scenarios);
  const SparseResiduals sparse = sparse_of(residuals);
  for (std::size_t l = 0; l < world.caps.size(); ++l) {
    EXPECT_EQ(fast.headroom(LinkId(static_cast<std::uint32_t>(l)), sparse), expected[l])
        << "link " << l;
  }
  EXPECT_EQ(fast.headroom(LinkId(0), sparse), std::numeric_limits<double>::infinity());
}

/// The reference fold over dense cells: per link, std::min over the
/// scenarios leaving the link alive, in ascending scenario order, starting
/// from +inf.
std::vector<double> per_link_headroom(const Topology& topo,
                                      std::span<const FailureScenario> scenarios,
                                      std::span<const std::vector<double>> residuals) {
  std::vector<double> headroom(topo.link_count());
  for (std::size_t l = 0; l < headroom.size(); ++l) {
    const SrlgId srlg = topo.link(LinkId(static_cast<std::uint32_t>(l))).srlg;
    double min = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const std::vector<SrlgId>& down = scenarios[s].down;
      if (std::find(down.begin(), down.end(), srlg) != down.end()) continue;
      min = std::min(min, residuals[s][l]);
    }
    headroom[l] = min;
  }
  return headroom;
}

// The sparse fold must reproduce the dense per-link scan bit for bit
// (signed zeros included, so the fold order is pinned too): over random
// residual families on multi-SRLG scenario sets, with one SRLG down in
// every scenario, scenario 0 included (its links keep +inf), and across
// several residual families read by one estimator.
TEST(FastEstimator, HeadroomMatchesPerLinkScanBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t dead_everywhere = 0;
  std::size_t multi_srlg = 0;
  std::size_t sparse_entries = 0;
  std::size_t dense_cells = 0;
  for (std::uint64_t t = 0; t < 12; ++t) {
    Rng rng(0xfeed0000 + t);
    topology::GeneratorConfig config;
    config.region_count = 4 + rng.uniform_int(4);
    config.base_capacity = Gbps(rng.uniform(150.0, 400.0));
    config.max_parallel_fibers = 1 + rng.uniform_int(2);
    const Topology topo = topology::generate_backbone(config, rng);
    ScenarioConfig scenario_config;
    scenario_config.max_simultaneous = 2 + rng.uniform_int(2);
    std::vector<FailureScenario> scenarios = enumerate_scenarios(topo, scenario_config);
    const SrlgId always = topo.link(LinkId(static_cast<std::uint32_t>(
                                        rng.uniform_int(topo.link_count()))))
                              .srlg;
    for (FailureScenario& scenario : scenarios) {
      const auto at = std::lower_bound(scenario.down.begin(), scenario.down.end(), always);
      if (at == scenario.down.end() || *at != always) scenario.down.insert(at, always);
      if (scenario.down.size() > 2) ++multi_srlg;
    }
    const topology::SrlgIndex index(topo);
    const Router router(topo, 1);
    const std::span<const double> caps = router.full_capacities();

    const FastEstimator estimator(topo, scenarios);
    for (int family = 0; family < 3; ++family) {
      SCOPED_TRACE("topology " + std::to_string(t) + " family " + std::to_string(family));
      std::vector<std::vector<double>> residuals;
      for (const FailureScenario& scenario : scenarios) {
        std::vector<double> residual = scenario_capacities(index, caps, scenario);
        for (std::size_t l = 0; l < residual.size(); ++l) {
          // Arbitrary consumption, with exhausted links of both zero signs
          // and repeated values, so a reordered fold would show; and, as in
          // the admission state, many cells holding scenario 0's residual.
          double& r = residual[l];
          const std::uint64_t roll = rng.uniform_int(8);
          if (roll == 0) r = 0.0;
          if (roll == 1) r = -0.0;
          if (roll == 2) r = 25.0;
          if (roll > 2) r *= rng.uniform(0.1, 1.0);
          if (!residuals.empty() && rng.uniform_int(2) == 0) r = residuals[0][l];
        }
        residuals.push_back(std::move(residual));
      }
      const std::vector<double> reference = per_link_headroom(topo, scenarios, residuals);
      const SparseResiduals sparse = sparse_of(residuals);
      for (std::size_t l = 0; l < reference.size(); ++l) {
        const LinkId link(static_cast<std::uint32_t>(l));
        const double headroom = estimator.headroom(link, sparse);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(headroom),
                  std::bit_cast<std::uint64_t>(reference[l]))
            << "link " << l << ": " << headroom << " vs " << reference[l];
        if (topo.link(link).srlg == always) {
          EXPECT_EQ(headroom, kInf) << "link " << l;
          ++dead_everywhere;
        }
      }
      for (const SparseResiduals::Group& group : sparse.groups) {
        for (const std::vector<double>& values : group.values) sparse_entries += values.size();
      }
      dense_cells += (residuals.size() - 1) * reference.size();
    }
  }
  EXPECT_LT(2 * sparse_entries, dense_cells);  // scenario 0's copies were left out
  EXPECT_GT(dead_everywhere, 0u);
  EXPECT_GT(multi_srlg, 0u);
}

// Tiny rates sit below the routing epsilon and must always fall back.
TEST(FastEstimator, RatesBelowMinimumAlwaysDecline) {
  Rng rng(5);
  const World world = make_world(rng);
  Router router(world.topo, 3);
  const std::vector<Demand> demands = draw_demands(world.topo, 1, 50.0, rng);
  router.warm(demands);

  const FastEstimator fast(world.topo, world.scenarios);
  const SparseResiduals pristine =
      sparse_of(pristine_residuals(world.index, world.caps, world.scenarios));
  const topology::PathList paths = router.cached_paths(demands[0].src, demands[0].dst);
  ASSERT_TRUE(paths.valid());
  const std::vector<double> consumed(world.caps.size(), 0.0);

  EXPECT_EQ(fast.bound(FastEstimator::kMinRateGbps * 0.5, paths, pristine, consumed), 0.0);
  EXPECT_EQ(fast.bound(0.0, paths, pristine, consumed), 0.0);
  EXPECT_GT(fast.bound(1.0, paths, pristine, consumed), 0.0);
}

// Window charging is worst-case: a charged demand consumes its full rate on
// every candidate path's links, so a second demand sharing ANY candidate
// link sees reduced room.
TEST(FastEstimator, ChargeReservesEveryCandidatePath) {
  Rng rng(29);
  const World world = make_world(rng);
  Router router(world.topo, 3);
  const std::vector<Demand> demands = draw_demands(world.topo, 1, 50.0, rng);
  router.warm(demands);
  const topology::PathList paths = router.cached_paths(demands[0].src, demands[0].dst);
  ASSERT_TRUE(paths.valid());

  std::vector<double> consumed(world.caps.size(), 0.0);
  FastEstimator::charge(40.0, paths, consumed);
  for (const topology::PathView path : paths) {
    for (const LinkId link : path.links) {
      EXPECT_GE(consumed[link.value()], 40.0) << "link " << link.value();
    }
  }

  const FastEstimator fast(world.topo, world.scenarios);
  const SparseResiduals pristine =
      sparse_of(pristine_residuals(world.index, world.caps, world.scenarios));
  double bottleneck = std::numeric_limits<double>::infinity();
  for (const LinkId link : paths[0].links) {
    bottleneck = std::min(bottleneck, fast.headroom(link, pristine));
  }
  const std::vector<double> untouched(world.caps.size(), 0.0);
  const double rate = bottleneck - 20.0;
  const double before = fast.bound(rate, paths, pristine, untouched);
  const double after = fast.bound(rate, paths, pristine, consumed);
  // Charging 40 Gbps against a demand needing all-but-20 of the first
  // path's bottleneck forces the fast tier to decline.
  EXPECT_GT(before, 0.0);
  EXPECT_EQ(after, 0.0);
}

// The multi-path bound gap fix: scenarios that take down the FIRST candidate
// path but leave a cleared later path fully alive must count toward the
// bound — the water-fill places nothing on a path with a dead link, so the
// first fully-alive cleared path provably carries the demand. A hand-built
// triangle where the direct hop is flaky (u ~ 1e-2) and the 2-hop detour is
// highly reliable: a first-path-only analysis caps out below a 0.995 SLO
// while the multi-path scan clears it, and the bound stays <= exact.
TEST(FastEstimator, MultiPathBoundClearsWhereFirstPathOnlyFails) {
  Topology topo;
  const RegionId a = topo.add_region("a", topology::RegionKind::data_center);
  const RegionId b = topo.add_region("b", topology::RegionKind::data_center);
  const RegionId c = topo.add_region("c", topology::RegionKind::pop);
  (void)topo.add_fiber(a, b, Gbps(100), 1000.0, 10.0);  // flaky direct hop
  (void)topo.add_fiber(a, c, Gbps(100), 1.0e6, 1.0);
  (void)topo.add_fiber(c, b, Gbps(100), 1.0e6, 1.0);

  ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 1;
  const std::vector<FailureScenario> scenarios = enumerate_scenarios(topo, scenario_config);
  const topology::SrlgIndex index(topo);
  Router router(topo, 2);  // the direct hop leads, the detour backs it up
  const std::span<const double> caps = router.full_capacities();

  const Demand demand{a, b, Gbps(40.0)};
  router.warm(std::span<const Demand>(&demand, 1));
  const topology::PathList paths = router.cached_paths(a, b);
  ASSERT_TRUE(paths.valid());
  ASSERT_GE(paths.size(), 2u);
  ASSERT_EQ(paths[0].links.size(), 1u);

  const FastEstimator fast(topo, scenarios);
  const SparseResiduals pristine = sparse_of(pristine_residuals(index, caps, scenarios));
  const std::vector<double> consumed(caps.size(), 0.0);
  const double bound = fast.bound(demand.amount.value(), paths, pristine, consumed);

  // The best a first-path-only analysis can certify: the mass of scenarios
  // under which the direct hop is fully alive.
  double first_path_only = 0.0;
  for (const FailureScenario& scenario : scenarios) {
    bool alive = true;
    for (const LinkId link : paths[0].links) {
      if (std::binary_search(scenario.down.begin(), scenario.down.end(),
                             topo.link(link).srlg)) {
        alive = false;
        break;
      }
    }
    if (alive) first_path_only += scenario.probability;
  }

  constexpr double kSlo = 0.995;
  EXPECT_LT(first_path_only, kSlo);  // the old bound would always fall back
  EXPECT_GT(bound, first_path_only);
  EXPECT_GE(bound, kSlo);  // the multi-path scan fast-admits

  // Soundness: the bound never exceeds the exact per-scenario availability.
  double exact = 0.0;
  for (const FailureScenario& scenario : scenarios) {
    std::vector<double> residual = scenario_capacities(index, caps, scenario);
    const double placed =
        topology::water_fill_demand(demand.amount.value(), paths, residual, {});
    if (placed + 1e-9 >= demand.amount.value()) exact += scenario.probability;
  }
  EXPECT_LE(bound, exact + 1e-12);
  EXPECT_GE(exact, kSlo);
}

// Degenerate inputs never admit: empty path sets and empty first paths
// have no provable placement.
TEST(FastEstimator, EmptyPathsDecline) {
  Rng rng(3);
  const World world = make_world(rng);
  const FastEstimator fast(world.topo, world.scenarios);
  const SparseResiduals pristine =
      sparse_of(pristine_residuals(world.index, world.caps, world.scenarios));
  const std::vector<double> consumed(world.caps.size(), 0.0);

  EXPECT_EQ(fast.bound(10.0, topology::PathList(), pristine, consumed), 0.0);
  topology::PathStore store(world.topo.region_count());
  const std::vector<Path> degenerate(1);  // one path, zero links
  const topology::PathList degenerate_list =
      store.insert(RegionId(0), RegionId(1), degenerate);
  EXPECT_EQ(fast.bound(10.0, degenerate_list, pristine, consumed), 0.0);
}

}  // namespace
}  // namespace netent::risk
