// The two load-bearing promises of netent::obs:
//  1. Sharded metrics are EXACT under concurrency — 8 threads hammering one
//     counter/histogram lose no updates and merge to the serially computed
//     totals (integer merges are order-independent).
//  2. The instrumentation is cheap — the obs operations a metering cycle or
//     risk-scenario placement performs are priced against the measured cost
//     of that hot path and must stay under the 2% budget; in a
//     NETENT_OBS=OFF build the call sites are empty classes (no-ops).
//
// Timing methodology: ON-vs-OFF cannot be compared inside one binary, so the
// budget is checked as (primitive op cost x ops per cycle) / cycle cost.
// Minimum-of-several-runs makes both sides robust to scheduler noise (noise
// only ever inflates a measurement).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/meter.h"
#include "enforce/ratestore.h"
#include "obs/timer.h"
#include "risk/failure.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/routing.h"

namespace netent::obs {
namespace {

constexpr std::size_t kThreads = 8;

TEST(ObsExactness, CounterLosesNoUpdatesUnder8Threads) {
  Counter& counter = Registry::global().counter("test.exact.counter");
  counter.reset();
  constexpr std::uint64_t kPerThread = 400000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Mix of unit and wide increments, different per thread.
        counter.add(1 + (i + t) % 3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::uint64_t expected = 0;
  if constexpr (kEnabled) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kPerThread; ++i) expected += 1 + (i + t) % 3;
    }
  }
  EXPECT_EQ(counter.value(), expected);  // 0 == 0 in an OFF build
}

TEST(ObsExactness, HistogramMergesExactlyUnder8Threads) {
  const double bounds[] = {0.1, 0.5, 1.0, 5.0, 10.0};
  Histogram& histogram = Registry::global().histogram("test.exact.histogram", bounds);
  histogram.reset();
  constexpr std::uint64_t kPerThread = 200000;
  const auto value_for = [](std::uint64_t i) {
    return static_cast<double>(i % 1200) * 0.01;  // 0.00 .. 11.99, hits every bucket
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) histogram.record(value_for(i));
    });
  }
  for (std::thread& thread : threads) thread.join();

  if constexpr (kEnabled) {
    // Serially computed ground truth with the identical bucketing/rounding.
    std::vector<std::uint64_t> expected_counts(std::size(bounds) + 1, 0);
    std::uint64_t expected_micro = 0;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const double value = value_for(i);
      const auto bucket = static_cast<std::size_t>(
          std::lower_bound(std::begin(bounds), std::end(bounds), value) - std::begin(bounds));
      expected_counts[bucket] += kThreads;
      expected_micro += static_cast<std::uint64_t>(std::llround(value * 1e6)) * kThreads;
    }
    EXPECT_EQ(histogram.count(), kPerThread * kThreads);
    EXPECT_EQ(histogram.bucket_counts(), expected_counts);
    EXPECT_DOUBLE_EQ(histogram.sum(), static_cast<double>(expected_micro) / 1e6);
  } else {
    EXPECT_EQ(histogram.count(), 0u);
  }
  histogram.reset();
}

#if NETENT_OBS_ENABLED

/// Seconds per op: run `op` iters times, take the minimum over `repeats`
/// timed runs (minimum is the noise-robust estimator here).
template <typename Op>
double seconds_per_op(std::size_t iters, int repeats, Op&& op) {
  double best = 1e9;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) op(i);
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    best = std::min(best, elapsed / static_cast<double>(iters));
  }
  return best;
}

TEST(ObsOverhead, MeteringCycleObsShareUnderTwoPercent) {
  auto& reg = Registry::global();

  // --- price the primitives ------------------------------------------------
  Counter& counter = reg.counter("test.cost.counter");
  const double c_add = seconds_per_op(2000000, 3, [&](std::size_t) { counter.add(); });
  const double hist_bounds[] = {0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 60.0, 120.0};
  Histogram& histogram = reg.histogram("test.cost.histogram", hist_bounds);
  const double h_rec =
      seconds_per_op(1000000, 3,
                     [&](std::size_t i) { histogram.record(0.001 * static_cast<double>(i % 100)); });
  Gauge& gauge = reg.gauge("test.cost.gauge");
  const double g_set =
      seconds_per_op(1000000, 3, [&](std::size_t i) { gauge.set(static_cast<double>(i)); });
  Histogram& timer_sink = reg.timer_histogram("test.cost.timer");
  const double t_span = seconds_per_op(200000, 3, [&](std::size_t) {
    const ScopedTimer span(timer_sink);
  });

  // Generous absolute sanity bounds (relaxed atomics on thread-private cache
  // lines; orders of magnitude of headroom for slow CI machines).
  EXPECT_LT(c_add, 500e-9);
  EXPECT_LT(h_rec, 2000e-9);

  // --- measure the real metering cycle at drill scale ----------------------
  // One service of 512 publishing hosts (the §6 drill's coldstorage tier) on
  // the store's exact mode, the drill's compatibility mode; the measured
  // agent runs a full publish + read + meter + program cycle per tick, and
  // each read applies the agent's previous publish, so every cycle re-sums
  // all 512 hosts.
  enforce::RateStore store(enforce::RateStore::AggregateMode::kExactOrdered, 1.0);
  constexpr std::uint32_t kHosts = 512;
  for (int s = 0; s < 3; ++s) {
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      store.publish(NpgId(1), QosClass::c2_low, HostId(h), Gbps(10), Gbps(9),
                    static_cast<double>(s));
    }
  }
  enforce::BpfClassifier classifier{enforce::Marker(enforce::MarkingMode::host_based)};
  const enforce::EntitlementQuery query = [](NpgId, QosClass, double) {
    return enforce::EntitlementAnswer{true, Gbps(4000)};
  };
  enforce::AgentConfig agent_config;
  agent_config.metering_interval_seconds = 1.0;
  agent_config.publish_interval_seconds = 1.0;
  enforce::HostAgent agent(HostId(0), NpgId(1), QosClass::c2_low, agent_config,
                           std::make_unique<enforce::StatefulMeter>(), query, store, classifier);
  agent.observe_local(Gbps(10), Gbps(9));
  double now = 10.0;
  const double cycle = seconds_per_op(2000, 5, [&](std::size_t) {
    now += 1.0;
    (void)agent.tick(now);
  });

  // Obs work per steady-state cycle (see agent.cpp / ratestore.cpp). The
  // per-cycle counts are plain integer increments, part of the measured
  // cycle itself; what reaches the registry is:
  //  * the batched flushes: the agent adds its 10 counts (6 of its own, 4
  //    meter-event deltas) every HostAgent::kObsFlushCycles cycles, and the
  //    store its 4 every RateStore::kObsFlushReads reads (one per cycle);
  //  * 1 staleness record and 1 conform gauge set per cycle;
  //  * the cycle-latency span, amortized 1-in-16.
  // Pricing is pessimistic: the loop hammers ONE counter's cache line
  // back-to-back, while a flush spreads its adds over up to 14 metrics.
  const double flushed_adds_per_cycle =
      10.0 / static_cast<double>(enforce::HostAgent::kObsFlushCycles) +
      4.0 / static_cast<double>(enforce::RateStore::kObsFlushReads);
  const double obs_per_cycle = flushed_adds_per_cycle * c_add + h_rec + g_set + t_span / 16.0;
  EXPECT_LT(obs_per_cycle, 0.02 * cycle)
      << "obs=" << obs_per_cycle * 1e9 << "ns vs cycle=" << cycle * 1e9
      << "ns (c_add=" << c_add * 1e9 << "ns h_rec=" << h_rec * 1e9
      << "ns g_set=" << g_set * 1e9 << "ns span=" << t_span * 1e9 << "ns)";
}

TEST(ObsOverhead, RiskScenarioObsShareUnderTwoPercent) {
  // Scenario placements carry a ScopedTimer sampled one scenario in eight
  // (simulator.cpp kPlaceSampleStride); price the amortized span against
  // one warmed placement.
  Histogram& timer_sink = Registry::global().timer_histogram("test.cost.risk_timer");
  const double t_span = seconds_per_op(200000, 3, [&](std::size_t) {
    const ScopedTimer span(timer_sink);
  });

  // A representative placement: a full-mesh pipe set on a 12-region
  // backbone (the evaluation benches sweep hundreds of pipes per scenario;
  // a toy placement would make the fixed span cost look artificially large).
  Rng rng(7);
  topology::GeneratorConfig config;
  config.region_count = 12;
  config.max_parallel_fibers = 1;
  const topology::Topology topo = topology::generate_backbone(config, rng);
  topology::Router router(topo, 3);
  risk::ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 1;
  const auto scenarios = risk::enumerate_scenarios(topo, scenario_config);
  const risk::RiskSimulator sim(router, scenarios, router.full_capacities());
  std::vector<topology::Demand> pipes;
  for (std::uint32_t a = 0; a < topo.region_count(); ++a) {
    for (std::uint32_t b = 0; b < topo.region_count(); ++b) {
      if (a != b) pipes.push_back({RegionId(a), RegionId(b), Gbps(50)});
    }
  }
  (void)sim.availability_curves(pipes, 1);  // warm the path cache

  const double sweep = seconds_per_op(20, 3, [&](std::size_t) {
    (void)sim.availability_curves(pipes, 1);
  });
  const double per_scenario = sweep / static_cast<double>(scenarios.size());
  const double obs_per_scenario = t_span / 8.0;  // sampled 1-in-8
  EXPECT_LT(obs_per_scenario, 0.02 * per_scenario)
      << "amortized span=" << obs_per_scenario * 1e9 << "ns vs placement=" << per_scenario * 1e9
      << "ns";
}

#else  // NETENT_OBS_ENABLED == 0

TEST(ObsOverhead, DisabledBuildCompilesToNoOps) {
  // The stubs are empty classes: no shards, no atomics, no storage. A call
  // site holding one costs nothing and the optimizer can erase it entirely.
  EXPECT_TRUE(std::is_empty_v<Counter>);
  EXPECT_TRUE(std::is_empty_v<Gauge>);
  EXPECT_TRUE(std::is_empty_v<Histogram>);
  EXPECT_TRUE(std::is_empty_v<ScopedTimer>);
  EXPECT_FALSE(Registry::enabled());

  // Instrumented code paths ran in the fixture-less tests above (counter
  // adds, histogram records): all of it must observe as zero.
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

#endif  // NETENT_OBS_ENABLED

}  // namespace
}  // namespace netent::obs
