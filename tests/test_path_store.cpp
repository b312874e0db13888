// Golden equivalence suite for the CSR placement data layer (PR: flatten
// the placement hot path). The legacy layout — an ordered map of (src, dst)
// to heap-allocated std::vector<Path> — is reconstructed here as a reference
// implementation, and the CSR PathStore layout must reproduce its
// RouteResults, water-fill op-logs and ScenarioSweeper outputs BIT for BIT
// across hundreds of randomized topologies. The suite also pins that
// steady-state placements perform ZERO heap allocations, verified through a
// counting global operator new/delete hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "risk/failure.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/path_store.h"
#include "topology/replay.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"
#include "topology/topology.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global new/delete in this binary bumps a
// counter, so tests can assert that a code region allocated exactly nothing.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// noinline: keeps GCC from inlining the malloc/free bodies into callers,
// which would trip -Wmismatched-new-delete against the opaque operator new.
#define NETENT_TEST_NOINLINE __attribute__((noinline))

NETENT_TEST_NOINLINE void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

NETENT_TEST_NOINLINE void* operator new[](std::size_t size) { return ::operator new(size); }

NETENT_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace netent::topology {
namespace {

using risk::FailureScenario;

/// The pre-CSR path cache and placement loop, reproduced verbatim as the
/// golden reference: an ordered map of per-pair path vectors, two fresh
/// scratch vectors per placement pass, a map lookup per demand.
class LegacyRouter {
 public:
  LegacyRouter(const Topology& topo, std::size_t k_paths) : topo_(topo), k_paths_(k_paths) {}

  const std::vector<Path>& paths(RegionId src, RegionId dst) {
    const auto key = std::make_pair(src.value(), dst.value());
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, k_shortest_paths(topo_, src, dst, k_paths_, accept_all_links()))
               .first;
    }
    return it->second;
  }

  void warm(std::span<const Demand> demands) {
    for (const Demand& demand : demands) (void)paths(demand.src, demand.dst);
  }

  const std::vector<Path>* cached_paths(RegionId src, RegionId dst) const {
    const auto it = cache_.find(std::make_pair(src.value(), dst.value()));
    return it == cache_.end() ? nullptr : &it->second;
  }

  RouteResult route_warmed(std::span<const Demand> demands,
                           std::span<const double> capacity_gbps) const {
    RouteResult result;
    result.placed_per_demand.reserve(demands.size());
    std::vector<double> residual(capacity_gbps.begin(), capacity_gbps.end());
    std::vector<double> link_load(capacity_gbps.size(), 0.0);
    for (const Demand& demand : demands) {
      result.demand_total += demand.amount;
      const std::vector<Path>* candidate_paths = cached_paths(demand.src, demand.dst);
      const double placed =
          water_fill_demand(demand.amount.value(), *candidate_paths, residual, link_load);
      result.placed_total += Gbps(placed);
      result.placed_per_demand.push_back(placed);
    }
    result.link_load = std::move(link_load);
    result.fully_placed = (result.demand_total - result.placed_total) <= Gbps(kPlacementEps);
    return result;
  }

 private:
  const Topology& topo_;
  std::size_t k_paths_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Path>> cache_;
};

struct RandomWorld {
  Topology topo;
  std::vector<Demand> demands;
};

RandomWorld make_world(std::uint64_t seed) {
  Rng rng(seed);
  GeneratorConfig config;
  config.region_count = 4 + rng.uniform_int(9);  // 4..12 regions
  config.base_capacity = Gbps(rng.uniform(100.0, 500.0));
  config.max_parallel_fibers = 1 + rng.uniform_int(2);
  RandomWorld world{generate_backbone(config, rng), {}};

  const std::size_t demand_count = 4 + rng.uniform_int(25);
  const auto regions = static_cast<std::uint32_t>(world.topo.region_count());
  for (std::size_t i = 0; i < demand_count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(regions));
    auto dst = static_cast<std::uint32_t>(rng.uniform_int(regions));
    if (dst == src) dst = (dst + 1) % regions;
    // Rates up to ~2x a link's capacity exercise spill and saturation.
    world.demands.push_back({RegionId(src), RegionId(dst),
                             Gbps(rng.uniform(0.0, 2.0 * config.base_capacity.value()))});
  }
  return world;
}

// The headline golden sweep: across >= 200 random (topology, k, demand set)
// draws, the CSR layout reproduces the legacy layout's RouteResult exactly —
// every placed amount, the full link-load vector, the totals, the flag.
TEST(PathStoreGolden, RouteResultsBitIdenticalAcrossRandomTopologies) {
  constexpr std::size_t kDraws = 210;
  std::size_t compared = 0;
  for (std::size_t draw = 0; draw < kDraws; ++draw) {
    const RandomWorld world = make_world(0xc5a0 + draw);
    const std::size_t k_paths = 1 + draw % 4;

    LegacyRouter legacy(world.topo, k_paths);
    legacy.warm(world.demands);
    Router csr(world.topo, k_paths);
    csr.warm(world.demands);

    const std::span<const double> caps = csr.full_capacities();
    const RouteResult expected = legacy.route_warmed(world.demands, caps);
    const RouteResult actual =
        static_cast<const Router&>(csr).route_warmed(world.demands, caps);

    ASSERT_EQ(expected.placed_per_demand.size(), actual.placed_per_demand.size());
    for (std::size_t i = 0; i < expected.placed_per_demand.size(); ++i) {
      ASSERT_EQ(expected.placed_per_demand[i], actual.placed_per_demand[i])
          << "draw " << draw << " demand " << i;
    }
    ASSERT_EQ(expected.link_load, actual.link_load) << "draw " << draw;
    ASSERT_EQ(expected.demand_total.value(), actual.demand_total.value());
    ASSERT_EQ(expected.placed_total.value(), actual.placed_total.value());
    ASSERT_EQ(expected.fully_placed, actual.fully_placed);
    ++compared;
  }
  EXPECT_EQ(compared, kDraws);
}

// The op-log — the exact sequence of (link, amount) subtractions the fill
// performs, which the incremental replay depends on — must be identical
// between layouts, along with the scanned-path counts and per-path splits.
TEST(PathStoreGolden, WaterFillOpLogsBitIdenticalAcrossLayouts) {
  for (std::size_t draw = 0; draw < 40; ++draw) {
    const RandomWorld world = make_world(0x09107 + draw);
    LegacyRouter legacy(world.topo, 3);
    legacy.warm(world.demands);
    Router csr(world.topo, 3);
    csr.warm(world.demands);

    const std::span<const double> caps = csr.full_capacities();
    std::vector<double> legacy_residual(caps.begin(), caps.end());
    std::vector<double> csr_residual(caps.begin(), caps.end());
    std::vector<std::pair<LinkId, double>> legacy_ops;
    std::vector<std::pair<LinkId, double>> csr_ops;
    std::vector<double> legacy_split;
    std::vector<double> csr_split;

    for (const Demand& demand : world.demands) {
      legacy_ops.clear();
      csr_ops.clear();
      std::size_t legacy_scanned = 0;
      std::size_t csr_scanned = 0;

      const std::vector<Path>* legacy_paths = legacy.cached_paths(demand.src, demand.dst);
      ASSERT_NE(legacy_paths, nullptr);
      const double legacy_placed =
          water_fill_demand(demand.amount.value(), *legacy_paths, legacy_residual, {},
                            &legacy_ops, &legacy_scanned, &legacy_split);
      const PathList csr_paths = csr.cached_paths(demand.src, demand.dst);
      ASSERT_TRUE(csr_paths.valid());
      const double csr_placed =
          water_fill_demand(demand.amount.value(), csr_paths, csr_residual, {}, &csr_ops,
                            &csr_scanned, &csr_split);

      ASSERT_EQ(legacy_placed, csr_placed);
      ASSERT_EQ(legacy_scanned, csr_scanned);
      ASSERT_EQ(legacy_split, csr_split);
      ASSERT_EQ(legacy_ops.size(), csr_ops.size());
      for (std::size_t o = 0; o < legacy_ops.size(); ++o) {
        ASSERT_EQ(legacy_ops[o].first.value(), csr_ops[o].first.value());
        ASSERT_EQ(legacy_ops[o].second, csr_ops[o].second);
      }
    }
    ASSERT_EQ(legacy_residual, csr_residual);
  }
}

// ScenarioSweeper consumes PathLists straight from the CSR store; its replay
// outputs must stay bit-identical to a legacy-layout from-scratch placement
// of every scenario.
TEST(PathStoreGolden, ScenarioSweeperMatchesLegacyLayoutPlacement) {
  for (std::size_t draw = 0; draw < 12; ++draw) {
    const RandomWorld world = make_world(0x5eeb + draw * 7);
    LegacyRouter legacy(world.topo, 3);
    legacy.warm(world.demands);
    Router csr(world.topo, 3);
    csr.warm(world.demands);

    risk::ScenarioConfig scenario_config;
    scenario_config.max_simultaneous = 1 + draw % 2;
    const std::vector<FailureScenario> scenarios =
        risk::enumerate_scenarios(world.topo, scenario_config);
    const SrlgIndex index(world.topo);
    const std::span<const double> caps = csr.full_capacities();

    const ScenarioSweeper sweeper(csr, world.demands, caps);
    ScenarioSweeper::Workspace workspace;
    std::vector<double> placed(world.demands.size());
    for (const FailureScenario& scenario : scenarios) {
      const std::vector<double> scenario_caps =
          risk::scenario_capacities(index, caps, scenario);
      const RouteResult expected = legacy.route_warmed(world.demands, scenario_caps);
      sweeper.replay(scenario.down, workspace, placed);
      for (std::size_t i = 0; i < placed.size(); ++i) {
        ASSERT_EQ(expected.placed_per_demand[i], placed[i]) << "draw " << draw;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PathStore unit semantics.
// ---------------------------------------------------------------------------

TEST(PathStore, InsertAndFindRoundTrip) {
  PathStore store(4);
  EXPECT_FALSE(store.contains(RegionId(0), RegionId(1)));
  EXPECT_FALSE(store.find(RegionId(0), RegionId(1)).valid());

  std::vector<Path> paths;
  paths.push_back(Path{{LinkId(2), LinkId(5)}, 3.5});
  paths.push_back(Path{{LinkId(1)}, 1.25});
  const PathList inserted = store.insert(RegionId(0), RegionId(1), paths);

  ASSERT_TRUE(inserted.valid());
  ASSERT_EQ(inserted.size(), 2u);
  EXPECT_EQ(inserted[0].hops(), 2u);
  EXPECT_EQ(inserted[0].links[0], LinkId(2));
  EXPECT_EQ(inserted[0].links[1], LinkId(5));
  EXPECT_EQ(inserted[0].cost, 3.5);
  EXPECT_EQ(inserted[1].hops(), 1u);
  EXPECT_EQ(inserted[1].links[0], LinkId(1));
  EXPECT_EQ(inserted[1].cost, 1.25);

  const PathList found = store.find(RegionId(0), RegionId(1));
  ASSERT_TRUE(found.valid());
  EXPECT_EQ(found.size(), 2u);
  EXPECT_TRUE(store.contains(RegionId(0), RegionId(1)));
  // Directionality: the reverse pair is its own entry.
  EXPECT_FALSE(store.contains(RegionId(1), RegionId(0)));
  EXPECT_EQ(store.pair_count(), 1u);
  EXPECT_EQ(store.path_count(), 2u);
  EXPECT_EQ(store.link_entry_count(), 3u);
}

TEST(PathStore, PathListsStayValidAcrossLaterInsertions) {
  PathStore store(8);
  std::vector<Path> first_paths;
  first_paths.push_back(Path{{LinkId(0), LinkId(1), LinkId(2)}, 3.0});
  const PathList first = store.insert(RegionId(0), RegionId(1), first_paths);

  // Grow the store far past the first insertion's footprint: the flat
  // arrays reallocate, the PathList must keep resolving correctly.
  std::vector<Path> filler;
  filler.push_back(Path{{LinkId(3), LinkId(4)}, 2.0});
  for (std::uint32_t dst = 2; dst < 8; ++dst) {
    for (std::uint32_t src = 0; src < 2; ++src) {
      (void)store.insert(RegionId(src), RegionId(dst), filler);
    }
  }

  ASSERT_TRUE(first.valid());
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].hops(), 3u);
  EXPECT_EQ(first[0].links[0], LinkId(0));
  EXPECT_EQ(first[0].links[1], LinkId(1));
  EXPECT_EQ(first[0].links[2], LinkId(2));
  EXPECT_EQ(first[0].cost, 3.0);
}

TEST(PathStore, EmptyPathSetIsValidButEmpty) {
  PathStore store(2);
  const PathList inserted = store.insert(RegionId(0), RegionId(1), {});
  EXPECT_TRUE(inserted.valid());  // "compiled, no route" != "never compiled"
  EXPECT_TRUE(inserted.empty());
  EXPECT_TRUE(store.contains(RegionId(0), RegionId(1)));
}

// SweepGuard semantics survive the dense-table rewrite: lazy insertion on a
// cache miss during an active sweep is still refused.
TEST(PathStore, SweepGuardStillBlocksLazyInsertion) {
  Rng rng(11);
  GeneratorConfig config;
  config.region_count = 5;
  const Topology topo = generate_backbone(config, rng);
  Router router(topo, 2);
  const std::vector<Demand> warmed{{RegionId(0), RegionId(1), Gbps(5)}};
  router.warm(warmed);
  {
    const Router::SweepGuard guard(router);
    EXPECT_NO_THROW((void)router.paths(RegionId(0), RegionId(1)));
    EXPECT_THROW((void)router.paths(RegionId(2), RegionId(3)), ContractViolation);
  }
  EXPECT_NO_THROW((void)router.paths(RegionId(2), RegionId(3)));
}

// ---------------------------------------------------------------------------
// Zero-allocation guarantees: reused RouteResults and sweeper workspaces.
// (The suite name is what the CI zero-allocation step filters on.)
// ---------------------------------------------------------------------------

TEST(PlacementArenaSteadyState, RouteWarmedIntoAllocatesNothing) {
  const RandomWorld world = make_world(0xa110c);
  Router router(world.topo, 3);
  router.warm(world.demands);
  const std::span<const double> caps = router.full_capacities();

  RouteResult scratch;
  // Warm-up: grows the result vectors, residual scratch included.
  router.route_warmed_into(world.demands, caps, scratch);
  const RouteResult expected = scratch;

  const std::uint64_t before = g_alloc_count.load();
  for (int rep = 0; rep < 100; ++rep) {
    router.route_warmed_into(world.demands, caps, scratch);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state placement touched the heap";

  // And it still computes the right thing.
  EXPECT_EQ(expected.placed_per_demand, scratch.placed_per_demand);
  EXPECT_EQ(expected.link_load, scratch.link_load);
}

TEST(PlacementArenaSteadyState, ScenarioReplayAllocatesNothing) {
  const RandomWorld world = make_world(0xa110d);
  Router router(world.topo, 3);
  router.warm(world.demands);
  risk::ScenarioConfig scenario_config;
  const std::vector<FailureScenario> scenarios =
      risk::enumerate_scenarios(world.topo, scenario_config);

  const ScenarioSweeper sweeper(router, world.demands, router.full_capacities());
  ScenarioSweeper::Workspace workspace;
  std::vector<double> placed(world.demands.size());
  // Warm-up pass grows the workspace (diverged map, epoch words, touched).
  for (const FailureScenario& scenario : scenarios) {
    sweeper.replay(scenario.down, workspace, placed);
  }

  const std::uint64_t before = g_alloc_count.load();
  for (const FailureScenario& scenario : scenarios) {
    sweeper.replay(scenario.down, workspace, placed);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state replay touched the heap";
}

// Concurrent warmed placements share the immutable CSR store but never the
// placement scratch (one RouteResult per thread). Run under TSan via the
// tsan label.
TEST(PathStoreConcurrency, ParallelRouteWarmedIntoIsRaceFreeAndIdentical) {
  const RandomWorld world = make_world(0xfa57);
  Router router(world.topo, 3);
  router.warm(world.demands);
  const Router& warmed = router;
  const Router::SweepGuard guard(warmed);
  const std::span<const double> caps = warmed.full_capacities();
  const RouteResult expected = warmed.route_warmed(world.demands, caps);

  constexpr std::size_t kThreads = 4;
  std::vector<RouteResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 8; ++rep) {
          warmed.route_warmed_into(world.demands, caps, results[t]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const RouteResult& result : results) {
    EXPECT_EQ(expected.placed_per_demand, result.placed_per_demand);
    EXPECT_EQ(expected.link_load, result.link_load);
  }
}

}  // namespace
}  // namespace netent::topology
