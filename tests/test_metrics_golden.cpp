// Golden-metrics determinism: the deterministic subset of the obs registry
// (integer counters, non-timing gauges/histograms) exported after a DrillEngine
// run must be BYTE-identical for the same seed at every thread count. This
// pins two things at once:
//  * the drill's merge-in-order parallelism discipline (no thread count may
//    change what the simulation computes), and
//  * the obs sharding design (integer merges are order-independent, and
//    everything wall-clock-derived really is timing-flagged and filtered by
//    Snapshot::deterministic_only()).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/drill_engine.h"

namespace netent::sim {
namespace {

DrillConfig small_drill(std::size_t num_threads) {
  DrillConfig config;
  config.host_count = 24;
  config.duration_seconds = 30.0 * 60.0;  // covers the entitlement cut + one ACL stage
  config.tick_seconds = 5.0;
  config.entitled_cut_seconds = 8.0 * 60.0;
  config.acl_stages = {{12.0 * 60.0, 0.5}, {20.0 * 60.0, 1.0}};
  config.demand_ramp_end_seconds = 15.0 * 60.0;
  config.flows_per_host = 10;
  config.exec.threads = num_threads;
  return config;
}

/// Runs the drill from a clean registry; returns the deterministic metrics
/// JSON plus a digest of the tick series (to confirm the sim itself agreed).
struct GoldenRun {
  std::string metrics_json;
  std::vector<DrillTick> ticks;
};

GoldenRun run_drill(std::size_t num_threads) {
  obs::Registry::global().reset();
  DrillEngine sim(small_drill(num_threads), Rng(20220822));
  GoldenRun run;
  run.ticks = sim.run();
  run.metrics_json = obs::to_json(obs::Registry::global().snapshot().deterministic_only());
  return run;
}

TEST(MetricsGolden, SerialAndParallelExportsAreByteIdentical) {
  const GoldenRun serial = run_drill(1);
  ASSERT_FALSE(serial.ticks.empty());
  if constexpr (obs::kEnabled) {
    // The run must actually have produced deterministic metrics (guards
    // against the filter accidentally dropping everything).
    EXPECT_NE(serial.metrics_json.find("sim.drill.ticks"), std::string::npos);
    EXPECT_NE(serial.metrics_json.find("sim.drill.flows_marked"), std::string::npos);
    EXPECT_NE(serial.metrics_json.find("enforce.meter.updates"), std::string::npos);
    EXPECT_NE(serial.metrics_json.find("enforce.ratestore.read_staleness_seconds"),
              std::string::npos);
    // ...and that the wall-clock histograms really were filtered out.
    EXPECT_EQ(serial.metrics_json.find("enforce.agent.cycle_seconds"), std::string::npos);
  }

  std::vector<std::size_t> thread_counts = {2};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 2) thread_counts.push_back(hw);
  for (const std::size_t threads : thread_counts) {
    const GoldenRun parallel = run_drill(threads);
    EXPECT_EQ(parallel.metrics_json, serial.metrics_json) << "threads=" << threads;
    // The tick series itself is the pre-existing determinism contract; if it
    // diverged, the metrics comparison above is moot.
    ASSERT_EQ(parallel.ticks.size(), serial.ticks.size());
    for (std::size_t i = 0; i < serial.ticks.size(); ++i) {
      ASSERT_EQ(parallel.ticks[i].total_rate, serial.ticks[i].total_rate)
          << "threads=" << threads << " tick=" << i;
      ASSERT_EQ(parallel.ticks[i].nonconform_loss_ratio, serial.ticks[i].nonconform_loss_ratio)
          << "threads=" << threads << " tick=" << i;
    }
  }
}

TEST(MetricsGolden, RepeatedRunsAreByteIdentical) {
  // Same seed, same thread count, fresh registry: re-running must reproduce
  // the export byte for byte (no hidden global state leaks between runs).
  const GoldenRun first = run_drill(2);
  const GoldenRun second = run_drill(2);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

}  // namespace
}  // namespace netent::sim
