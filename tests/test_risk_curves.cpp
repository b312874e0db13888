// The streamed curve build (risk::curves_from_sweep) against its reference,
// the dense AvailabilityCurve over every (placed, probability) outcome in
// scenario order: breakpoints, lookups and contract checks must match bit
// for bit, for fake placers that hit each case of the build and for real
// sweeps in both modes at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "risk/simulator.h"
#include "topology/generator.h"

namespace netent::risk {
namespace {

using topology::Demand;
using topology::Router;
using topology::Topology;

/// Placed Gbps per [scenario][demand].
using Table = std::vector<std::vector<double>>;

std::vector<FailureScenario> with_probabilities(std::vector<double> probabilities) {
  std::vector<FailureScenario> scenarios;
  for (const double p : probabilities) scenarios.push_back({{}, p});
  return scenarios;
}

std::vector<AvailabilityCurve> dense_curves(const Table& placed,
                                            std::span<const FailureScenario> scenarios,
                                            std::size_t demand_count) {
  std::vector<AvailabilityCurve> curves;
  for (std::size_t d = 0; d < demand_count; ++d) {
    std::vector<std::pair<double, double>> outcomes;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      outcomes.emplace_back(placed[s][d], scenarios[s].probability);
    }
    curves.emplace_back(std::move(outcomes));
  }
  return curves;
}

/// A fake placer: scenario s places table[s], whatever the worker.
std::vector<AvailabilityCurve> streamed_curves(const Table& placed,
                                               std::span<const FailureScenario> scenarios,
                                               std::size_t demand_count, std::size_t threads) {
  return curves_from_sweep(scenarios, demand_count, threads,
                           [&](std::size_t, std::size_t s) { return std::span(placed[s]); });
}

void expect_curves_equal(const std::vector<AvailabilityCurve>& expected,
                         const std::vector<AvailabilityCurve>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    const auto lhs = expected[d].outcomes();
    const auto rhs = actual[d].outcomes();
    ASSERT_EQ(lhs.size(), rhs.size()) << "demand " << d;
    for (std::size_t k = 0; k < lhs.size(); ++k) {
      ASSERT_EQ(lhs[k].first, rhs[k].first) << "demand " << d << " breakpoint " << k;
      ASSERT_EQ(lhs[k].second, rhs[k].second) << "demand " << d << " breakpoint " << k;
      // Every breakpoint bandwidth, and the lookups at and just around it.
      for (const double bandwidth : {lhs[k].first, lhs[k].first * 0.999, lhs[k].first + 0.5}) {
        ASSERT_EQ(expected[d].availability_at(Gbps(bandwidth)),
                  actual[d].availability_at(Gbps(bandwidth)));
      }
      if (lhs[k].second > 0.0 && lhs[k].second <= 1.0) {
        ASSERT_EQ(expected[d].bandwidth_at(lhs[k].second).value(),
                  actual[d].bandwidth_at(lhs[k].second).value());
      }
    }
    for (const double target : {1e-9, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
      ASSERT_EQ(expected[d].bandwidth_at(target).value(), actual[d].bandwidth_at(target).value())
          << "demand " << d << " target " << target;
    }
  }
}

void expect_streamed_matches_dense(const Table& placed,
                                   std::span<const FailureScenario> scenarios,
                                   std::size_t demand_count) {
  const auto dense = dense_curves(placed, scenarios, demand_count);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_curves_equal(dense, streamed_curves(placed, scenarios, demand_count, threads));
  }
}

TEST(RiskCurves, DeviationsAboveAndBelowTheReference) {
  // Demand 0's reference (scenario 0) is 50: scenarios 2 and 4 place more,
  // 1 and 3 less, 5 ties the reference.
  const auto scenarios = with_probabilities({0.5, 0.125, 0.125, 0.0625, 0.0625, 0.125});
  const Table placed{{50}, {20}, {80}, {10}, {60}, {50}};
  expect_streamed_matches_dense(placed, scenarios, 1);

  const auto curves = streamed_curves(placed, scenarios, 1, 1);
  const std::vector<std::pair<double, double>> expected{
      {80, 0.125}, {60, 0.1875}, {50, 0.8125}, {20, 0.9375}, {10, 1.0}};
  ASSERT_EQ(curves[0].outcomes().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(curves[0].outcomes()[k], expected[k]) << k;
  }
  EXPECT_EQ(curves[0].availability_at(Gbps(60)), 0.1875);
  EXPECT_EQ(curves[0].bandwidth_at(0.8), Gbps(50));
}

TEST(RiskCurves, TiedDeviationsGroupInScenarioOrder) {
  // Deviations tie with each other above and below the reference, out of
  // scenario order by bandwidth; probabilities that are not binary-exact
  // make the summation order visible.
  const auto scenarios = with_probabilities({0.3, 0.1, 0.07, 0.1, 0.13, 0.07, 0.11, 0.12});
  const Table placed{{40, 7}, {90, 7}, {15, 3}, {90, 9}, {15, 3}, {90, 9}, {15, 7}, {40, 9}};
  expect_streamed_matches_dense(placed, scenarios, 2);
  // Demand 1 has one tie group above its reference 7 (9 in 3, 5 and 7) and
  // one below (3 in 2 and 4).
  EXPECT_EQ(streamed_curves(placed, scenarios, 2, 1)[1].outcomes().size(), 3u);
}

TEST(RiskCurves, ZeroProbabilityScenariosKeepTheirBreakpoints) {
  const auto scenarios = with_probabilities({0.9, 0.0, 0.05, 0.0, 0.05});
  const Table placed{{30}, {100}, {30}, {0}, {10}};
  expect_streamed_matches_dense(placed, scenarios, 1);
  const auto curves = streamed_curves(placed, scenarios, 1, 1);
  ASSERT_EQ(curves[0].outcomes().size(), 4u);
  EXPECT_EQ(curves[0].outcomes()[0], std::make_pair(100.0, 0.0));
  EXPECT_EQ(curves[0].availability_at(Gbps(100)), 0.0);
  EXPECT_EQ(curves[0].bandwidth_at(0.93), Gbps(30));
}

TEST(RiskCurves, OneScenarioIsOneBreakpoint) {
  const auto scenarios = with_probabilities({0.75});
  const Table placed{{12.5, 0.0}};
  expect_streamed_matches_dense(placed, scenarios, 2);
  const auto curves = streamed_curves(placed, scenarios, 2, 8);
  EXPECT_EQ(curves[0].outcomes()[0], std::make_pair(12.5, 0.75));
  EXPECT_EQ(curves[1].outcomes()[0], std::make_pair(0.0, 0.75));
  EXPECT_EQ(curves[0].bandwidth_at(0.8), Gbps(0));
}

TEST(RiskCurves, DemandDeviatingInEveryScenario) {
  // Demand 1 places something different under every scenario but the
  // reference, in no bandwidth order; demand 0 never deviates.
  std::vector<double> probabilities;
  Table placed;
  for (std::uint32_t s = 0; s < 40; ++s) {
    probabilities.push_back(s == 0 ? 0.4 : 0.015);
    placed.push_back({25.0, s == 0 ? 50.0 : static_cast<double>((s * 37) % 41 + (s % 2) * 60)});
  }
  const auto scenarios = with_probabilities(probabilities);
  expect_streamed_matches_dense(placed, scenarios, 2);
  const auto curves = streamed_curves(placed, scenarios, 2, 1);
  EXPECT_EQ(curves[0].outcomes().size(), 1u);
  EXPECT_EQ(curves[1].outcomes().size(), 40u);
}

TEST(RiskCurves, ZeroDemandsYieldNoCurves) {
  const auto scenarios = with_probabilities({0.5, 0.5});
  bool placed_any = false;
  const auto curves = curves_from_sweep(scenarios, 0, 8, [&](std::size_t, std::size_t) {
    placed_any = true;
    return std::span<const double>();
  });
  EXPECT_TRUE(curves.empty());
  EXPECT_FALSE(placed_any);
}

TEST(RiskCurves, ReferenceNeedNotBeTheNoFailureScenario) {
  // Scenario 0 places less than most scenarios, so nearly every cell
  // deviates above it: only the saving depends on the scenario order.
  const auto scenarios = with_probabilities({0.01, 0.9, 0.05, 0.04});
  const Table placed{{5, 0}, {60, 40}, {60, 10}, {30, 40}};
  expect_streamed_matches_dense(placed, scenarios, 2);
}

TEST(RiskCurves, InvalidPlacementsAndProbabilitiesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto scenarios = with_probabilities({0.5, 0.25, 0.25});
  for (const std::size_t threads : {1u, 8u}) {
    // In the reference, and in a deviating cell.
    for (const Table& placed : {Table{{nan, 1}, {2, 1}, {2, 1}}, Table{{-1, 1}, {2, 1}, {2, 1}},
                                Table{{2, 1}, {2, 1}, {nan, 1}}, Table{{2, 1}, {2, -0.5}, {2, 1}}}) {
      EXPECT_THROW((void)streamed_curves(placed, scenarios, 2, threads), ContractViolation);
      EXPECT_THROW((void)dense_curves(placed, scenarios, 2), ContractViolation);
    }
    const Table valid{{2, 1}, {2, 1}, {2, 1}};
    const auto negative = with_probabilities({0.5, -0.25, 0.25});
    EXPECT_THROW((void)streamed_curves(valid, negative, 2, threads), ContractViolation);
    const auto nan_probability = with_probabilities({nan, 0.25, 0.25});
    EXPECT_THROW((void)streamed_curves(valid, nan_probability, 2, threads), ContractViolation);
    // A placer that returns the wrong number of demands.
    EXPECT_THROW((void)streamed_curves(valid, scenarios, 3, threads), ContractViolation);
  }
  const Table one{{1.0}};
  EXPECT_THROW((void)streamed_curves(one, {}, 1, 1), ContractViolation);
}

TEST(RiskCurves, RandomTablesMatchDense) {
  // Few distinct bandwidths, so ties and reference-group sizes vary; some
  // probabilities are zero. Large enough tables fan out on the pool.
  Rng rng(4242);
  for (int round = 0; round < 30; ++round) {
    const std::size_t scenario_count = 1 + rng.uniform_int(round < 20 ? 30 : 400);
    const std::size_t demand_count = 1 + rng.uniform_int(round < 20 ? 8 : 60);
    std::vector<double> probabilities;
    for (std::size_t s = 0; s < scenario_count; ++s) {
      probabilities.push_back(rng.uniform_int(5) == 0 ? 0.0 : rng.uniform(0.0, 0.1));
    }
    const auto scenarios = with_probabilities(probabilities);
    Table placed(scenario_count, std::vector<double>(demand_count));
    for (std::size_t d = 0; d < demand_count; ++d) {
      const double reference = static_cast<double>(rng.uniform_int(5)) * 10.0;
      const std::uint64_t deviation_odds = 1 + rng.uniform_int(6);
      for (std::size_t s = 0; s < scenario_count; ++s) {
        const bool deviates = s > 0 && rng.uniform_int(deviation_odds) == 0;
        placed[s][d] = deviates ? static_cast<double>(rng.uniform_int(6)) * 10.0 : reference;
      }
    }
    SCOPED_TRACE(round);
    expect_streamed_matches_dense(placed, scenarios, demand_count);
  }
}

/// A generated backbone, a scenario sample and a full pipe mesh scaled to
/// `load` x total capacity.
struct Backbone {
  Topology topo;
  std::vector<FailureScenario> scenarios;
  std::vector<Demand> pipes;

  Backbone(std::uint32_t regions, double load) {
    Rng rng(1000 + regions);
    topology::GeneratorConfig config;
    config.region_count = regions;
    config.max_parallel_fibers = 2;
    topo = topology::generate_backbone(config, rng);

    ScenarioConfig scenario_config;
    scenario_config.max_simultaneous = 2;
    const auto all = enumerate_scenarios(topo, scenario_config);
    const std::size_t stride = std::max<std::size_t>(1, all.size() / 150);
    for (std::size_t s = 0; s < all.size(); s += stride) scenarios.push_back(all[s]);

    double total = 0.0;
    for (std::uint32_t s = 0; s < regions; ++s) {
      for (std::uint32_t d = 0; d < regions; ++d) {
        if (s == d) continue;
        pipes.push_back({RegionId(s), RegionId(d), Gbps(rng.uniform(10.0, 50.0))});
        total += pipes.back().amount.value();
      }
    }
    const double target = load * topo.total_capacity().value();
    for (Demand& pipe : pipes) pipe.amount = Gbps(pipe.amount.value() * target / total);
  }
};

TEST(RiskCurves, SimulatorCurvesMatchDenseOverSweptPlacements) {
  for (const std::uint32_t regions : {6u, 8u, 12u, 20u}) {
    for (const double load : {0.12, 1.5}) {
      SCOPED_TRACE(testing::Message() << regions << " regions, load " << load);
      const Backbone backbone(regions, load);
      Router router(backbone.topo, 3);
      const RiskSimulator sim(router, backbone.scenarios, router.full_capacities());
      const Table placed = sweep_scenario_placements(
          router, backbone.pipes, router.full_capacities(), sim.srlg_index(), sim.scenarios(), 1,
          SweepMode::kFull);
      const auto dense = dense_curves(placed, sim.scenarios(), backbone.pipes.size());
      for (const SweepMode mode : {SweepMode::kFull, SweepMode::kIncremental}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode) << ", threads "
                                          << threads);
          expect_curves_equal(dense, sim.availability_curves(backbone.pipes, threads, mode));
        }
      }
    }
  }
}

}  // namespace
}  // namespace netent::risk
