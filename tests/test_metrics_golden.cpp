// Golden-metrics determinism: the deterministic subset of the obs registry
// (integer counters, non-timing gauges/histograms) exported after a run must
// be BYTE-identical for the same input. This pins three things:
//  * the drill computes the same thing every run (no hidden global state
//    leaks between runs),
//  * the risk sweep's fan-out changes nothing it counts: a serial sweep and
//    one split over the shared pool export the same bytes, and
//  * the obs sharding design (integer merges are order-independent, and
//    everything wall-clock-derived really is timing-flagged and filtered by
//    Snapshot::deterministic_only()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "risk/failure.h"
#include "risk/simulator.h"
#include "sim/drill_engine.h"
#include "topology/generator.h"
#include "topology/routing.h"

namespace netent::sim {
namespace {

DrillConfig small_drill() {
  DrillConfig config;
  config.host_count = 24;
  config.duration_seconds = 30.0 * 60.0;  // covers the entitlement cut + one ACL stage
  config.tick_seconds = 5.0;
  config.entitled_cut_seconds = 8.0 * 60.0;
  config.acl_stages = {{12.0 * 60.0, 0.5}, {20.0 * 60.0, 1.0}};
  config.demand_ramp_end_seconds = 15.0 * 60.0;
  config.flows_per_host = 10;
  return config;
}

/// Runs the drill from a clean registry; returns the deterministic metrics
/// JSON plus a digest of the tick series (to confirm the sim itself agreed).
struct GoldenRun {
  std::string metrics_json;
  std::vector<DrillTick> ticks;
};

GoldenRun run_drill() {
  obs::Registry::global().reset();
  DrillEngine sim(small_drill(), Rng(20220822));
  GoldenRun run;
  run.ticks = sim.run();
  run.metrics_json = obs::to_json(obs::Registry::global().snapshot().deterministic_only());
  return run;
}

TEST(MetricsGolden, RepeatedRunsAreByteIdentical) {
  // Same seed, fresh registry: re-running must reproduce the export byte
  // for byte.
  const GoldenRun first = run_drill();
  ASSERT_FALSE(first.ticks.empty());
  if constexpr (obs::kEnabled) {
    // The run must actually have produced deterministic metrics (guards
    // against the filter accidentally dropping everything).
    EXPECT_NE(first.metrics_json.find("sim.drill.ticks"), std::string::npos);
    EXPECT_NE(first.metrics_json.find("sim.drill.flows_marked"), std::string::npos);
    EXPECT_NE(first.metrics_json.find("enforce.meter.updates"), std::string::npos);
    EXPECT_NE(first.metrics_json.find("enforce.ratestore.read_staleness_seconds"),
              std::string::npos);
    // ...and that the wall-clock histograms really were filtered out.
    EXPECT_EQ(first.metrics_json.find("enforce.agent.cycle_seconds"), std::string::npos);
  }

  const GoldenRun second = run_drill();
  EXPECT_EQ(second.metrics_json, first.metrics_json);
  // The tick series itself is the pre-existing determinism contract; if it
  // diverged, the metrics comparison above is moot.
  ASSERT_EQ(second.ticks.size(), first.ticks.size());
  for (std::size_t i = 0; i < first.ticks.size(); ++i) {
    ASSERT_EQ(second.ticks[i].total_rate, first.ticks[i].total_rate) << "tick=" << i;
    ASSERT_EQ(second.ticks[i].nonconform_loss_ratio, first.ticks[i].nonconform_loss_ratio)
        << "tick=" << i;
  }
}

struct SweepRun {
  std::string metrics_json;
  std::vector<risk::AvailabilityCurve> curves;
};

/// Runs one risk sweep from a clean registry and fresh router. The sweep
/// crosses kFanOutCutoffPlacements, so any thread count above 1 really fans
/// the scenarios out over the shared pool.
SweepRun run_risk_sweep(std::size_t num_threads) {
  obs::Registry::global().reset();
  Rng rng(1234);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.base_capacity = Gbps(400);
  config.max_parallel_fibers = 2;
  const topology::Topology topo = topology::generate_backbone(config, rng);

  risk::ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 2;
  std::vector<risk::FailureScenario> scenarios = risk::enumerate_scenarios(topo, scenario_config);

  std::vector<topology::Demand> pipes;
  for (std::uint32_t s = 0; s < topo.region_count(); ++s) {
    for (std::uint32_t d = 0; d < topo.region_count(); ++d) {
      if (s == d) continue;
      pipes.push_back({RegionId(s), RegionId(d), Gbps(40.0 + 10.0 * ((s + d) % 5))});
    }
  }
  EXPECT_GT(scenarios.size() * pipes.size(), kFanOutCutoffPlacements)
      << "sweep too small to exercise the pool";

  topology::Router router(topo, 3);
  const risk::RiskSimulator sim(router, std::move(scenarios), router.full_capacities());
  SweepRun run;
  run.curves = sim.availability_curves(pipes, num_threads);
  run.metrics_json = obs::to_json(obs::Registry::global().snapshot().deterministic_only());
  return run;
}

TEST(MetricsGolden, SerialAndParallelExportsAreByteIdentical) {
  const SweepRun serial = run_risk_sweep(1);
  ASSERT_FALSE(serial.curves.empty());
  if constexpr (obs::kEnabled) {
    EXPECT_NE(serial.metrics_json.find("risk.scenarios_swept"), std::string::npos);
    EXPECT_NE(serial.metrics_json.find("risk.replay.demands_replayed"), std::string::npos);
    // The per-scenario timer is written from pool threads; it and the
    // thread-count gauge must be filtered out.
    EXPECT_EQ(serial.metrics_json.find("risk.scenario_place_seconds"), std::string::npos);
    EXPECT_EQ(serial.metrics_json.find("risk.sweep.threads"), std::string::npos);
  }

  std::vector<std::size_t> thread_counts = {2};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 2) thread_counts.push_back(hw);
  for (const std::size_t threads : thread_counts) {
    const SweepRun parallel = run_risk_sweep(threads);
    EXPECT_EQ(parallel.metrics_json, serial.metrics_json) << "threads=" << threads;
    // The curves are the sweep's determinism contract; if they diverged, the
    // metrics comparison above is moot.
    ASSERT_EQ(parallel.curves.size(), serial.curves.size());
    for (std::size_t i = 0; i < serial.curves.size(); ++i) {
      // Exact double equality, outcome by outcome.
      ASSERT_TRUE(std::ranges::equal(parallel.curves[i].outcomes(), serial.curves[i].outcomes()))
          << "threads=" << threads << " pipe=" << i;
    }
  }
}

}  // namespace
}  // namespace netent::sim
