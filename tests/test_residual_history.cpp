// service::ResidualHistory on its own: a Router and a scenario set, with no
// controller, RNG or approval engine. After every step the live residuals
// must equal the from-scratch oracle, and every realization's snapshots
// must sit on the stride for its history length, at most kSnapshots of
// them. Edits target demands at, one before and one after a snapshot
// position; dropped and throwing stages must leave no snapshot past their
// restore points, so a later edit that restores from one stays exact.
#include "service/residual_history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "risk/failure.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/routing.h"
#include "topology/topology.h"

namespace netent::service {
namespace {

using History = ResidualHistory::History;
using Residuals = ResidualHistory::Residuals;
using ResidualState = ResidualHistory::ResidualState;
using topology::Demand;

constexpr std::size_t kRealizations = 3;
constexpr std::size_t kSnapshots = ResidualHistory::kSnapshots;

/// The smallest power of two leaving at most kSnapshots positions in (0, n].
std::size_t stride_for(std::size_t n) {
  std::size_t stride = 1;
  while (n / stride > kSnapshots) stride *= 2;
  return stride;
}

/// Owner c's demand in realization k: regions s -> s+1 or s -> s+2 on the
/// five-region figure-6 network, 10-64 Gbps, so failures make demands
/// spill and contend and the placement order matters.
Demand demand_of(ContractId c, std::size_t k) {
  const auto src = static_cast<std::uint32_t>((c + k) % 5);
  const auto dst = static_cast<std::uint32_t>((src + 1 + c % 2) % 5);
  const double gbps = 10.0 + 3.0 * static_cast<double>((c * 37 + k * 11) % 19);
  return {RegionId(src), RegionId(dst), Gbps(gbps)};
}

/// figure6_topology() with its 93 one- to three-fiber failure scenarios, so
/// the other scenarios span two 64-scenario groups. Every pair demand_of()
/// draws is warmed; 0 -> 3 never is.
struct World {
  /// `scale` multiplies every demand: at 8, scenario 0's fills spill onto
  /// later paths once the first fill the shortest ones.
  explicit World(std::size_t threads, double demand_scale = 1.0)
      : scale(demand_scale),
        topo(topology::figure6_topology()),
        router(topo, 3),
        simulator(router, risk::enumerate_scenarios(topo, scenario_config()),
                  router.full_capacities()),
        history(router, simulator, kRealizations, threads) {
    std::vector<Demand> pairs;
    for (ContractId c = 0; c < 10; ++c) pairs.push_back(demand_of(c, 0));
    router.warm(pairs);
  }

  static risk::ScenarioConfig scenario_config() {
    risk::ScenarioConfig config;
    config.max_simultaneous = 3;
    return config;
  }

  /// Appends owners [first, first + count), one demand per realization each.
  void append(ContractId first, std::size_t count) {
    History batch(kRealizations);
    for (std::size_t k = 0; k < kRealizations; ++k) {
      for (ContractId c = first; c < first + count; ++c) {
        Demand demand = demand_of(c, k);
        demand.amount = Gbps(demand.amount.value() * scale);
        batch[k].push_back({demand, c});
      }
    }
    history.append(batch);
  }

  /// The residuals of `edited` from scratch, through a fresh history.
  ResidualState oracle_of(const History& edited) {
    ResidualHistory fresh(router, simulator, kRealizations, 1);
    fresh.append(edited);
    return fresh.residuals();
  }

  [[nodiscard]] ResidualState live() const { return history.residuals(); }

  /// The exactness and snapshot-layout invariants, after any step.
  void expect_exact(const std::string& where) const {
    const ResidualState oracle = history.rebuild_from_scratch();
    ASSERT_TRUE(live() == oracle) << where << ": residuals diverged";
    for (std::size_t k = 0; k < kRealizations; ++k) {
      expect_stored_form(k, oracle[k], where + ", realization " + std::to_string(k));
    }
    const auto positions = history.snapshot_positions();
    for (std::size_t k = 0; k < kRealizations; ++k) {
      const std::size_t length = history.history()[k].size();
      ASSERT_LE(positions[k].size(), kSnapshots) << where;
      for (const std::size_t position : positions[k]) {
        ASSERT_GT(position, 0u) << where;
        ASSERT_LE(position, length) << where;
        ASSERT_EQ(position % stride_for(length), 0u) << where << ": off the stride";
      }
    }
  }

  /// Realization k's stored form: per link and group, one value per set bit,
  /// none a copy of scenario 0's residual bit for bit, and every cell read
  /// through at() equal to the oracle's.
  void expect_stored_form(std::size_t k, const std::vector<std::vector<double>>& oracle,
                          const std::string& where) const {
    const Residuals& stored = history.residuals(k);
    ASSERT_EQ(stored.groups.size(), Residuals::group_count(oracle.size())) << where;
    for (std::size_t g = 0; g < stored.groups.size(); ++g) {
      const Residuals::Group& group = stored.groups[g];
      ASSERT_EQ(group.differs.size(), stored.base.size()) << where;
      ASSERT_EQ(group.values.size(), stored.base.size()) << where;
      for (std::size_t l = 0; l < stored.base.size(); ++l) {
        const auto set_bits = static_cast<std::size_t>(std::popcount(group.differs[l]));
        ASSERT_EQ(group.values[l].size(), set_bits) << where << ": group " << g << " link " << l;
        for (const double value : group.values[l]) {
          ASSERT_FALSE(Residuals::same_bits(value, stored.base[l]))
              << where << ": group " << g << " link " << l << " stores scenario 0's residual";
        }
      }
    }
    for (std::size_t s = 0; s < oracle.size(); ++s) {
      ASSERT_EQ(oracle[s].size(), stored.base.size()) << where;
      for (std::size_t l = 0; l < stored.base.size(); ++l) {
        ASSERT_TRUE(Residuals::same_bits(stored.at(s, l), oracle[s][l]))
            << where << ": scenario " << s << " link " << l;
      }
    }
  }

  /// Stages the history without `owners` and commits it.
  void release(const std::set<ContractId>& owners) {
    History edited = history.history();
    const std::vector<std::size_t> same = ResidualHistory::prune(edited, owners);
    history.stage(std::move(edited), same).commit();
  }

  /// The owner of history position `index` (the same in every realization:
  /// every owner holds one demand per realization).
  [[nodiscard]] ContractId owner_at(std::size_t index) const {
    return history.history()[0][index].owner;
  }

  double scale;
  topology::Topology topo;
  topology::Router router;
  risk::RiskSimulator simulator;
  ResidualHistory history;
};

/// What a full replay of `world`'s history must place, walked on dense
/// per-scenario residuals: per demand, scenario 0 and every scenario whose
/// residual differs from scenario 0's on a link scenario 0's fill scanned
/// (`cells`), or on a link of its first path alone (`first_path_cells`).
struct CellCount {
  std::uint64_t cells = 0;
  std::uint64_t first_path_cells = 0;
  std::uint64_t spills = 0;  ///< demands whose scenario-0 fill scanned past path 0
};
CellCount expected_cells(const World& world) {
  const auto scenarios = world.simulator.scenarios();
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  CellCount count;
  for (const auto& demands : world.history.history()) {
    std::vector<std::vector<double>> residual;
    for (const risk::FailureScenario& scenario : scenarios) {
      residual.push_back(risk::scenario_capacities(world.simulator.srlg_index(),
                                                   world.router.full_capacities(), scenario));
    }
    for (const ResidualHistory::TaggedDemand& tagged : demands) {
      const topology::PathList paths =
          world.router.cached_paths(tagged.demand.src, tagged.demand.dst);
      const double amount = tagged.demand.amount.value();
      std::vector<double> probe = residual[0];
      std::size_t scanned = 0;
      (void)topology::water_fill_demand(amount, paths, probe, {}, nullptr, &scanned);
      if (scanned > 1) ++count.spills;
      const auto differs_on = [&](std::size_t s, std::size_t path_count) {
        for (std::size_t p = 0; p < path_count; ++p) {
          for (const LinkId lid : paths[p].links) {
            if (!same(residual[s][lid.value()], residual[0][lid.value()])) return true;
          }
        }
        return false;
      };
      ++count.cells;
      ++count.first_path_cells;
      for (std::size_t s = 1; s < scenarios.size(); ++s) {
        if (differs_on(s, scanned)) ++count.cells;
        if (differs_on(s, 1)) ++count.first_path_cells;
      }
      for (std::vector<double>& cell : residual) {
        (void)topology::water_fill_demand(amount, paths, cell, {});
      }
    }
  }
  return count;
}

/// `position` moved by `offset`.
std::size_t shifted(std::size_t position, int offset) {
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(position) + offset);
}

/// The newest snapshot position of realization 0 at or before `index`, or 0.
std::size_t restore_point(const ResidualHistory& history, std::size_t index) {
  std::size_t point = 0;
  const std::vector<std::vector<std::size_t>> positions = history.snapshot_positions();
  for (const std::size_t position : positions[0]) {
    if (position <= index) point = position;
  }
  return point;
}

/// Positions after a stage that was not committed: a subset of those before
/// it, none past the stage's restore point.
void expect_nothing_past(const ResidualHistory& history,
                         const std::vector<std::vector<std::size_t>>& before, std::size_t point,
                         const std::string& where) {
  const auto after = history.snapshot_positions();
  for (std::size_t k = 0; k < kRealizations; ++k) {
    for (const std::size_t position : after[k]) {
      EXPECT_LE(position, point) << where << ": a provisional snapshot was left behind";
      EXPECT_TRUE(std::binary_search(before[k].begin(), before[k].end(), position)) << where;
    }
  }
}

TEST(ResidualHistory, AppendsAcrossStrideDoublingsStayExact) {
  World world(1);
  world.expect_exact("empty");
  std::size_t doublings = 0;
  ContractId next = 0;
  for (std::size_t batch = 1; next < 160; ++batch) {
    const std::size_t stride = stride_for(next);
    world.append(next, batch);
    next += batch;
    if (stride_for(next) > stride) ++doublings;
    world.expect_exact("after " + std::to_string(next) + " demands");
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(doublings, 4u);
  EXPECT_EQ(world.history.replay_stats().placements, 0u) << "appends are not edits";
}

TEST(ResidualHistory, EditsAtAndAroundSnapshotPositionsStayExact) {
  World world(1);
  world.append(0, 150);
  ContractId next = 150;
  for (const int offset : {0, -1, 1, 0, -1, 1}) {
    // A middle snapshot, so the edit restores from one and rewrites others.
    const std::vector<std::size_t> positions = world.history.snapshot_positions()[0];
    ASSERT_GE(positions.size(), 3u);
    const std::size_t index = shifted(positions[positions.size() / 2], offset);
    const std::string where = "edit at snapshot " + std::to_string(offset);
    world.release({world.owner_at(index)});
    world.expect_exact(where);
    if (testing::Test::HasFatalFailure()) return;
    world.append(next++, 1);  // crosses stride positions again
    world.expect_exact(where + ", then an append");
    if (testing::Test::HasFatalFailure()) return;
  }
  // An edit that keeps the history's length: one owner's demands scaled.
  const std::size_t index = world.history.snapshot_positions()[0].front();
  History scaled = world.history.history();
  for (auto& demands : scaled) demands[index].demand.amount = Gbps(0.5);
  std::vector<std::size_t> same(kRealizations, index);
  world.history.stage(std::move(scaled), same).commit();
  world.expect_exact("scaled demand at a snapshot");
}

TEST(ResidualHistory, ShrinkingEditsAcrossStrideHalvingsStayExact) {
  World world(1);
  world.append(0, 200);
  std::size_t halvings = 0;
  while (world.history.history()[0].size() > 12) {
    // Every third owner from the middle on: one edit, several removals.
    const std::size_t length = world.history.history()[0].size();
    std::set<ContractId> owners;
    for (std::size_t i = length / 2; i < length; i += 3) owners.insert(world.owner_at(i));
    const std::size_t stride = stride_for(length);
    world.release(owners);
    if (stride_for(world.history.history()[0].size()) < stride) ++halvings;
    world.expect_exact("shrunk to " + std::to_string(world.history.history()[0].size()));
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(halvings, 3u);
}

TEST(ResidualHistory, DroppedStageLeavesNoSnapshotBehind) {
  World world(1);
  world.append(0, 120);
  const auto before = world.history.snapshot_positions();
  const ResidualState live = world.live();
  const std::size_t index = 40;
  const std::size_t point = restore_point(world.history, index);
  {
    History edited = world.history.history();
    const std::vector<std::size_t> same =
        ResidualHistory::prune(edited, {world.owner_at(index), world.owner_at(index + 1)});
    const ResidualState expected = world.oracle_of(edited);
    const ResidualHistory::Edit edit = world.history.stage(std::move(edited), same);
    for (std::size_t k = 0; k < kRealizations; ++k) {
      ASSERT_TRUE(edit.residuals(k).dense(world.simulator.scenarios().size()) == expected[k])
          << "staged residuals, realization " << k;
    }
  }  // dropped
  EXPECT_TRUE(world.live() == live) << "a dropped stage changed the live residuals";
  EXPECT_EQ(world.history.history()[0].size(), 120u);
  expect_nothing_past(world.history, before, point, "dropped stage");
  world.expect_exact("dropped stage");
  // An edit near the tail restores from the newest snapshot it can find: one
  // the dropped stage wrote would describe the history without its owners.
  world.release({world.owner_at(118)});
  world.expect_exact("tail edit after a dropped stage");
  world.append(200, 30);
  world.expect_exact("append after a dropped stage");
}

/// A stage that throws half way: every realization drops its demand at 50,
/// and realization 1's demand at 69 then moves to 0 -> 3, a pair the router
/// never warmed. Its scenario-0 chain throws there, while the other
/// realizations rewrite their snapshots behind 50. Returns the placements
/// the stage's replay was sized at.
std::size_t expect_throwing_stage_leaves_no_snapshot_behind(std::size_t threads) {
  World world(threads);
  world.append(0, 120);
  const auto before = world.history.snapshot_positions();
  const ResidualState live = world.live();
  const std::size_t point = restore_point(world.history, 50);
  const std::size_t edited_length = 119;
  const std::size_t placements =
      world.simulator.scenarios().size() * kRealizations * (edited_length - point);
  History edited = world.history.history();
  for (auto& demands : edited) demands.erase(demands.begin() + 50);
  edited[1][69].demand = Demand{RegionId(0), RegionId(3), Gbps(20)};
  const std::vector<std::size_t> same(kRealizations, 50);
  EXPECT_THROW((void)world.history.stage(std::move(edited), same), ContractViolation);
  EXPECT_TRUE(world.live() == live) << "a throwing stage changed the live residuals";
  EXPECT_EQ(world.history.history()[1].size(), 120u);
  expect_nothing_past(world.history, before, point, "throwing stage");
  world.expect_exact("throwing stage");
  // Restores from the newest snapshot at or before 70: one the throwing
  // stage rewrote would describe the history without the demand at 50.
  world.release({world.owner_at(70)});
  world.expect_exact("edit after a throwing stage");
  world.release({world.owner_at(117)});
  world.expect_exact("tail edit after a throwing stage");
  world.append(200, 30);
  world.expect_exact("append after a throwing stage");
  return placements;
}

TEST(ResidualHistory, ThrowingStageLeavesNoSnapshotBehind) {
  (void)expect_throwing_stage_leaves_no_snapshot_behind(1);
}

// The same on the pool, where the groups of the realization whose chain
// throws may already be waiting on it and must be let go.
TEST(ResidualHistory, ThrowingStageOnThePoolLeavesNoSnapshotBehind) {
  EXPECT_GE(expect_throwing_stage_leaves_no_snapshot_behind(4), kFanOutCutoffPlacements)
      << "the throwing stage's replay ran inline";
}

TEST(ResidualHistory, ProbeLeavesSnapshotsAlone) {
  World world(1);
  world.append(0, 100);
  const auto before = world.history.snapshot_positions();
  History edited = world.history.history();
  const std::vector<std::size_t> same = ResidualHistory::prune(edited, {world.owner_at(33)});
  const ResidualState expected = world.oracle_of(edited);
  const std::vector<Residuals>& probed = world.history.probe(edited, same);
  for (std::size_t k = 0; k < kRealizations; ++k) {
    EXPECT_TRUE(probed[k].dense(world.simulator.scenarios().size()) == expected[k]) << k;
  }
  EXPECT_EQ(world.history.snapshot_positions(), before);
  world.expect_exact("probe");
  world.release({world.owner_at(90)});
  world.expect_exact("edit after a probe");
}

TEST(ResidualHistory, FullReplayAfterNetworkChangeStaysExact) {
  World world(1);
  world.append(0, 100);
  world.release({world.owner_at(10)});
  const ResidualState old_network = world.live();
  // What a topology window runs: free the snapshots, change the network (a
  // new fiber grows the link and scenario counts), resync, replay it all.
  world.history.network_changing();
  topology::Mutation add;
  add.kind = topology::MutationKind::add_fiber;
  add.region_a = RegionId(1);
  add.region_b = RegionId(3);
  add.capacity = Gbps(200);
  (void)world.topo.apply(add);
  topology::Mutation resize;
  resize.kind = topology::MutationKind::resize_fiber;
  resize.link = LinkId(0);
  resize.capacity = Gbps(150);
  (void)world.topo.apply(resize);
  world.router.resync_topology();
  ASSERT_TRUE(world.simulator.resync(
      risk::enumerate_scenarios(world.topo, World::scenario_config()),
      world.router.full_capacities()));
  world.history.replay_all();
  world.expect_exact("full replay on the new network");
  EXPECT_FALSE(world.live() == old_network);
  EXPECT_EQ(world.live()[0].size(), world.simulator.scenarios().size());
  for (const int offset : {0, -1, 1}) {
    const std::vector<std::size_t> positions = world.history.snapshot_positions()[0];
    world.release({world.owner_at(shifted(positions[2], offset))});
    world.expect_exact("edit on the new network");
  }
  world.append(500, 20);
  world.expect_exact("append on the new network");
}

// A replay fills scenario 0 and exactly the scenarios that differ from it
// on a link scenario 0's fill scanned; every other scenario repeats scenario
// 0's placement. On the contended history scenario 0's fills spill, so a
// union over the first path's links alone would miss scenarios.
TEST(ResidualHistory, ReplayPlacesExactlyTheScenariosThatDiffer) {
  for (const double scale : {1.0, 8.0}) {
    World world(1, scale);
    ASSERT_GT(world.simulator.scenarios().size(), 64u) << "one scenario group";
    world.append(0, 120);
    const std::string where = "demands x" + std::to_string(scale);
    const CellCount expected = expected_cells(world);
    const ResidualHistory::ReplayStats before = world.history.replay_stats();
    world.history.replay_all();
    const ResidualHistory::ReplayStats after = world.history.replay_stats();
    EXPECT_EQ(after.cells - before.cells, expected.cells) << where;
    EXPECT_EQ(after.placements - before.placements,
              kRealizations * 120 * world.simulator.scenarios().size())
        << where;
    EXPECT_LT(expected.cells, after.placements - before.placements) << where;
    world.expect_exact(where);
    if (scale > 1.0) {
      EXPECT_GT(expected.spills, kRealizations * 120 / 2) << where;
      EXPECT_GT(expected.cells, expected.first_path_cells) << where;
    }
  }
}

// A replay resets its chains' progress before its fan-out: a group that
// read the last replay's count would not wait for its chain, and would
// fill from records the chain has not written yet. With one realization
// the chain runs beside its groups from 2 threads up, and a long history
// keeps it running well after they start, so each back-to-back replay from
// position 0 races its groups against its chain.
TEST(ResidualHistory, BackToBackPooledReplaysStayExact) {
  World world(1);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    ResidualHistory history(world.router, world.simulator, 1, threads);
    History batch(1);
    for (ContractId c = 0; c < 600; ++c) batch[0].push_back({demand_of(c, 0), c});
    history.append(batch);
    for (const ContractId owner : {0u, 1u, 2u}) {
      const std::string where =
          std::to_string(threads) + " threads, release " + std::to_string(owner);
      history.replay_all();
      ASSERT_TRUE(history.residuals() == history.rebuild_from_scratch()) << where;
      History edited = history.history();
      const std::vector<std::size_t> same = ResidualHistory::prune(edited, {owner});
      ASSERT_EQ(same[0], 0u) << where;
      history.stage(std::move(edited), same).commit();
      ASSERT_TRUE(history.residuals() == history.rebuild_from_scratch()) << where;
    }
    EXPECT_GE(history.replay_stats().largest, kFanOutCutoffPlacements) << threads << " threads";
  }
}

// The same steps at 1 thread and at 2, 3 and 4: the edits near the front
// replay past the fan-out cutoff, so the pooled histories really run on the
// pool, and every state must be bit-identical. The widths differ in
// schedule: at 2 threads (3 slots) every slot takes a chain first and each
// group starts behind a finished chain; at 3 and 4 threads a group can
// start right behind a running one.
TEST(ResidualHistory, TwoToFourThreadsReplayBitIdentically) {
  const auto run = [](std::size_t threads) {
    World world(threads);
    std::vector<ResidualState> states;
    world.append(0, 120);
    states.push_back(world.live());
    for (const std::size_t index : {3u, 40u, 64u, 63u, 65u, 100u}) {
      world.release({world.owner_at(index)});
      states.push_back(world.live());
    }
    {
      History edited = world.history.history();
      const std::vector<std::size_t> same = ResidualHistory::prune(edited, {world.owner_at(1)});
      (void)world.history.stage(std::move(edited), same);  // dropped
    }
    world.append(300, 40);
    states.push_back(world.live());
    world.history.replay_all();
    states.push_back(world.live());
    world.expect_exact("threads=" + std::to_string(threads));
    return std::make_pair(states, world.history.replay_stats());
  };
  const auto [serial, serial_stats] = run(1);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    const auto [parallel, parallel_stats] = run(threads);
    const std::string where = std::to_string(threads) + " threads";
    EXPECT_GE(parallel_stats.largest, kFanOutCutoffPlacements) << where;
    EXPECT_EQ(parallel_stats.largest, serial_stats.largest) << where;
    EXPECT_EQ(parallel_stats.placements, serial_stats.placements) << where;
    EXPECT_EQ(parallel_stats.cells, serial_stats.cells) << where;
    ASSERT_EQ(serial.size(), parallel.size()) << where;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(serial[i] == parallel[i]) << "step " << i << " differs at " << where;
    }
  }
}

}  // namespace
}  // namespace netent::service
