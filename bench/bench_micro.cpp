// Micro-benchmarks (google-benchmark) of the hot paths: the kernel
// classification stage runs per packet, the meters per cycle per host, the
// risk simulator per scenario per approval batch, the drill's event spine per
// event. These bound the system's scalability claims (§3.1 challenge 3, §5
// "Efficiency").
//
// Extra flags (stripped before google-benchmark sees argv):
//   --smoke              fast CI pass (injects --benchmark_min_time=0.01)
//   --metrics-json[=P]   dump the obs registry after the run (see bench_util.h)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "enforce/bpf.h"
#include "enforce/meter.h"
#include "enforce/ratestore.h"
#include "enforce/switchport.h"
#include "hose/space.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "risk/simulator.h"
#include "sim/event_queue.h"
#include "topology/generator.h"
#include "topology/paths.h"
#include "topology/routing.h"

namespace {

using namespace netent;

void BM_BpfClassify(benchmark::State& state) {
  enforce::BpfClassifier classifier{enforce::Marker(enforce::MarkingMode::host_based)};
  classifier.program(NpgId(1), QosClass::c2_low, 0.3);
  const enforce::EgressMeta meta{NpgId(1), QosClass::c2_low, HostId(17), 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(meta));
  }
}
BENCHMARK(BM_BpfClassify);

void BM_StatefulMeterCycle(benchmark::State& state) {
  enforce::StatefulMeter meter;
  const enforce::MeterInput input{Gbps(9000), Gbps(6000), Gbps(5000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.update(input));
  }
}
BENCHMARK(BM_StatefulMeterCycle);

void BM_RateStoreAggregate(benchmark::State& state) {
  // One service's aggregate among a large multi-service fleet: the lookup
  // must touch only the queried service's publishers.
  enforce::RateStore store(1.0);
  const auto services = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t svc = 0; svc < services; ++svc) {
    for (std::uint32_t h = 0; h < 64; ++h) {
      store.publish(NpgId(svc), QosClass::c2_low, HostId(h), Gbps(10), Gbps(9), 100.0);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.aggregate(NpgId(0), QosClass::c2_low, 200.0));
  }
}
BENCHMARK(BM_RateStoreAggregate)->Arg(10)->Arg(1000);

void BM_SwitchTransmit(benchmark::State& state) {
  const enforce::PriorityQueueSwitch port(Gbps(10000));
  const std::vector<double> offered(enforce::kQueueCount, 1500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(port.transmit(offered));
  }
}
BENCHMARK(BM_SwitchTransmit);

void BM_EventQueuePeriodic(benchmark::State& state) {
  // The drill's event spine without its world: 500 agents' publish timers
  // at jittered phases, each publish a delivery 10 s later through a
  // constant-delay channel. One iteration is one 5-s period (500 timer
  // fires plus ~500 deliveries); events_per_s is the spine's own throughput.
  constexpr std::size_t kTimers = 500;
  constexpr double kPeriod = 5.0;
  sim::EventQueue queue;
  std::uint64_t delivered = 0;
  sim::DelayLine<std::uint64_t> deliveries(queue, 2.0 * kPeriod, sim::kDeliveryStratum,
                                           [&delivered](const std::uint64_t& host) {
                                             delivered += host;
                                           });
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  Rng rng(17);
  for (std::uint64_t host = 0; host < kTimers; ++host) {
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        queue, kPeriod, sim::kAgentStratum, [&deliveries, host] { deliveries.send(host); }));
    timers.back()->start_at(rng.uniform(0.0, kPeriod));
  }
  double horizon = 4.0 * kPeriod;
  queue.run_until(horizon);  // warm-up: the heap, slots and channel ring grow
  const std::uint64_t executed_before = queue.executed_count();
  for (auto _ : state) {
    horizon += kPeriod;
    queue.run_until(horizon);
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(queue.executed_count() - executed_before), benchmark::Counter::kIsRate);
  for (auto& timer : timers) timer->stop();
}
BENCHMARK(BM_EventQueuePeriodic);

void BM_RouteDemandBatch(benchmark::State& state) {
  Rng rng(1);
  topology::GeneratorConfig config;
  config.region_count = static_cast<std::size_t>(state.range(0));
  const topology::Topology topo = topology::generate_backbone(config, rng);
  topology::Router router(topo, 4);
  std::vector<topology::Demand> demands;
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    auto d = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    if (d == s) d = (d + 1) % static_cast<std::uint32_t>(topo.region_count());
    demands.push_back({RegionId(s), RegionId(d), Gbps(rng.uniform(1.0, 200.0))});
  }
  // Warm the path cache outside the loop (it is shared across iterations).
  benchmark::DoNotOptimize(router.route(demands));
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(demands));
  }
}
BENCHMARK(BM_RouteDemandBatch)->Arg(8)->Arg(16);

// --- Placement layout: legacy map cache vs CSR path store ----------------
// The pre-CSR placement layout, reconstructed as the baseline: an ordered
// map of per-pair heap path vectors plus two fresh scratch vectors per
// placement pass. Both layouts run the one water_fill_demand template, so
// any output difference is a data-layout bug, not arithmetic.

struct LegacyPlacement {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<topology::Path>> cache;

  void warm(const topology::Topology& topo, std::size_t k,
            std::span<const topology::Demand> demands) {
    for (const topology::Demand& demand : demands) {
      const auto key = std::make_pair(demand.src.value(), demand.dst.value());
      if (cache.find(key) == cache.end()) {
        cache.emplace(key, topology::k_shortest_paths(topo, demand.src, demand.dst, k,
                                                      topology::accept_all_links()));
      }
    }
  }

  topology::RouteResult route(std::span<const topology::Demand> demands,
                              std::span<const double> capacity_gbps) const {
    topology::RouteResult result;
    result.placed_per_demand.reserve(demands.size());
    std::vector<double> residual(capacity_gbps.begin(), capacity_gbps.end());
    std::vector<double> link_load(capacity_gbps.size(), 0.0);
    for (const topology::Demand& demand : demands) {
      result.demand_total += demand.amount;
      const std::vector<topology::Path>& paths =
          cache.at(std::make_pair(demand.src.value(), demand.dst.value()));
      const double placed =
          topology::water_fill_demand(demand.amount.value(), paths, residual, link_load);
      result.placed_total += Gbps(placed);
      result.placed_per_demand.push_back(placed);
    }
    result.link_load = std::move(link_load);
    result.fully_placed =
        (result.demand_total - result.placed_total) <= Gbps(topology::kPlacementEps);
    return result;
  }
};

struct PlacementWorkload {
  topology::Topology topo;
  std::vector<topology::Demand> demands;
};

/// The 28-region backbone and demand stream of bench_admission's two-tier
/// section: the workload whose placement loop the CSR layout targets.
PlacementWorkload placement_workload() {
  Rng net_rng(netent::bench::kSeed + 1);
  topology::GeneratorConfig net_config;
  net_config.region_count = 28;
  net_config.base_capacity = Gbps(2000);
  net_config.capacity_sigma = 0.2;
  net_config.max_parallel_fibers = 2;
  net_config.mtbf_hours_min = 200000.0;
  net_config.mtbf_hours_max = 400000.0;
  net_config.mttr_hours_min = 4.0;
  net_config.mttr_hours_max = 12.0;
  PlacementWorkload workload{topology::generate_backbone(net_config, net_rng), {}};

  Rng stream_rng(netent::bench::kSeed + 7);
  const auto regions = static_cast<std::uint32_t>(workload.topo.region_count());
  for (int i = 0; i < 512; ++i) {
    const auto src = static_cast<std::uint32_t>(stream_rng.uniform_int(regions));
    auto dst = static_cast<std::uint32_t>(stream_rng.uniform_int(regions));
    if (dst == src) dst = (dst + 1) % regions;
    workload.demands.push_back(
        {RegionId(src), RegionId(dst), Gbps(stream_rng.uniform(5.0, 60.0))});
  }
  return workload;
}

void BM_PlacementLegacyLayout(benchmark::State& state) {
  const PlacementWorkload workload = placement_workload();
  LegacyPlacement legacy;
  legacy.warm(workload.topo, 3, workload.demands);
  const topology::Router router(workload.topo, 3);
  const std::span<const double> caps = router.full_capacities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy.route(workload.demands, caps));
  }
  state.counters["demands"] = static_cast<double>(workload.demands.size());
}
BENCHMARK(BM_PlacementLegacyLayout);

void BM_PlacementCsrLayout(benchmark::State& state) {
  const PlacementWorkload workload = placement_workload();
  topology::Router router(workload.topo, 3);
  router.warm(workload.demands);
  const std::span<const double> caps = router.full_capacities();
  topology::RouteResult result;
  router.route_warmed_into(workload.demands, caps, result);  // grow scratch once
  for (auto _ : state) {
    router.route_warmed_into(workload.demands, caps, result);
    benchmark::DoNotOptimize(result.placed_total);
  }
  state.counters["demands"] = static_cast<double>(workload.demands.size());
}
BENCHMARK(BM_PlacementCsrLayout);

void BM_HoseExtremePoint(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> egress(n, 100.0);
  std::vector<double> ingress(n, 100.0);
  const hose::HoseSpace space(egress, ingress);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.extreme_point(rng));
  }
}
BENCHMARK(BM_HoseExtremePoint)->Arg(8)->Arg(16)->Arg(32);

void BM_RiskScenarioBatch(benchmark::State& state) {
  Rng rng(4);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.max_parallel_fibers = 1;
  const topology::Topology topo = topology::generate_backbone(config, rng);
  topology::Router router(topo, 3);
  risk::ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = static_cast<std::size_t>(state.range(0));
  const auto scenarios = risk::enumerate_scenarios(topo, scenario_config);
  const risk::RiskSimulator sim(router, scenarios, router.full_capacities());
  std::vector<topology::Demand> pipes;
  for (std::uint32_t r = 1; r < topo.region_count(); ++r) {
    pipes.push_back({RegionId(0), RegionId(r), Gbps(50)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.availability_curves(pipes, 1));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
}
BENCHMARK(BM_RiskScenarioBatch)->Arg(1)->Arg(2);

void BM_RiskScenarioBatchParallel(benchmark::State& state) {
  Rng rng(4);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.max_parallel_fibers = 1;
  const topology::Topology topo = topology::generate_backbone(config, rng);
  topology::Router router(topo, 3);
  risk::ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 2;
  const auto scenarios = risk::enumerate_scenarios(topo, scenario_config);
  const risk::RiskSimulator sim(router, scenarios, router.full_capacities());
  std::vector<topology::Demand> pipes;
  for (std::uint32_t r = 1; r < topo.region_count(); ++r) {
    pipes.push_back({RegionId(0), RegionId(r), Gbps(50)});
  }
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.availability_curves(pipes, threads));
  }
  state.counters["scenarios"] = static_cast<double>(scenarios.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_RiskScenarioBatchParallel)->Arg(2)->Arg(4)->Arg(8);

// --- obs substrate primitives -------------------------------------------
// These price the instrumentation itself (tests/test_obs_overhead.cpp holds
// the <2% budget against the hot-path costs above). In a NETENT_OBS=OFF
// build they measure the no-op stubs, i.e. the cost of nothing.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& counter = obs::Registry::global().counter("bench.obs.counter");
  for (auto _ : state) {
    counter.add();
  }
  if (state.thread_index() == 0) counter.reset();
}
BENCHMARK(BM_ObsCounterAdd);
BENCHMARK(BM_ObsCounterAdd)->Threads(8)->UseRealTime();

void BM_ObsHistogramRecord(benchmark::State& state) {
  const double bounds[] = {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
  obs::Histogram& histogram =
      obs::Registry::global().histogram("bench.obs.histogram", bounds);
  double value = 0.0;
  for (auto _ : state) {
    histogram.record(value);
    value = value < 100.0 ? value + 0.125 : 0.0;
  }
  if (state.thread_index() == 0) histogram.reset();
}
BENCHMARK(BM_ObsHistogramRecord);
BENCHMARK(BM_ObsHistogramRecord)->Threads(8)->UseRealTime();

void BM_ObsScopedTimer(benchmark::State& state) {
  obs::Histogram& sink = obs::Registry::global().timer_histogram("bench.obs.timer");
  for (auto _ : state) {
    const obs::ScopedTimer span(sink);
    benchmark::ClobberMemory();
  }
  if (state.thread_index() == 0) sink.reset();
}
BENCHMARK(BM_ObsScopedTimer);

void BM_ObsRegistryLookup(benchmark::State& state) {
  // The cost call sites avoid by caching handles in function-local statics.
  for (auto _ : state) {
    benchmark::DoNotOptimize(&obs::Registry::global().counter("bench.obs.lookup"));
  }
}
BENCHMARK(BM_ObsRegistryLookup);

// Best-of-batches timing of one pass: reps per batch auto-calibrated off a
// single pass so a batch runs long enough to dwarf clock granularity, then
// the minimum over batches discards scheduler noise (noise only slows runs).
template <typename Pass>
double best_pass_ns(bool smoke, Pass&& pass) {
  const auto calibrate_start = std::chrono::steady_clock::now();
  pass();
  const double single_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - calibrate_start)
          .count());
  const double target_batch_ns = smoke ? 2e7 : 1e8;
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(target_batch_ns / std::max(single_ns, 1.0)));
  const std::size_t batches = smoke ? 3 : 5;
  double best = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) pass();
    const double batch_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const double per_pass = batch_ns / static_cast<double>(reps);
    if (b == 0 || per_pass < best) best = per_pass;
  }
  return best;
}

// The perf-smoke routing gate: the CSR placement loop against the
// reconstructed legacy layout on the 28-region admission stream. Placed
// vectors must be bit-identical; the speedup lands in BENCH_routing.json
// (CI greps routing_speedup_ok). Runs outside google-benchmark so the JSON
// keys and the best-of-reps timing policy are under our control.
void run_routing_placement_section(int argc, char** argv, bool smoke) {
  using namespace netent::bench;
  print_header("Routing placement: legacy map layout vs CSR path store",
               "Same demand stream and water-fill arithmetic; expect identical=yes and "
               ">= 1.5x CSR speedup.");

  const PlacementWorkload workload = placement_workload();
  LegacyPlacement legacy;
  legacy.warm(workload.topo, 3, workload.demands);
  topology::Router router(workload.topo, 3);
  router.warm(workload.demands);
  const std::span<const double> caps = router.full_capacities();

  // Bit-identity first: the speedup is meaningless if the layouts disagree.
  const topology::RouteResult expected = legacy.route(workload.demands, caps);
  topology::RouteResult csr_result;
  router.route_warmed_into(workload.demands, caps, csr_result);
  const bool identical = expected.placed_per_demand == csr_result.placed_per_demand &&
                         expected.link_load == csr_result.link_load &&
                         expected.placed_total == csr_result.placed_total &&
                         expected.fully_placed == csr_result.fully_placed;

  const double legacy_ns = best_pass_ns(smoke, [&] {
    benchmark::DoNotOptimize(legacy.route(workload.demands, caps));
  });
  const double csr_ns = best_pass_ns(smoke, [&] {
    router.route_warmed_into(workload.demands, caps, csr_result);
    benchmark::DoNotOptimize(csr_result.placed_total);
  });
  const double speedup = legacy_ns / csr_ns;
  // Hardware-aware gate: a loaded single-core runner cannot give the legacy
  // and CSR loops comparable quiet time, so the ratio is only enforced where
  // best-of-batches can actually shed the noise.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool speedup_ok = speedup >= 1.5 || cores < 2;

  Table table({"layout", "pass_us", "speedup", "identical"}, 2);
  table.add_row({std::string("legacy_map"), legacy_ns / 1e3, 1.0,
                 std::string(identical ? "yes" : "no")});
  table.add_row({std::string("csr_path_store"), csr_ns / 1e3, speedup,
                 std::string(identical ? "yes" : "no")});
  table.print(std::cout);

  BenchJson json;
  json.add("bench", std::string("routing_placement"));
  json.add("regions", static_cast<std::uint64_t>(workload.topo.region_count()));
  json.add("demands", static_cast<std::uint64_t>(workload.demands.size()));
  json.add("pairs_compiled", static_cast<std::uint64_t>(router.path_store().pair_count()));
  json.add("legacy_pass_us", legacy_ns / 1e3);
  json.add("csr_pass_us", csr_ns / 1e3);
  json.add("routing_speedup", speedup);
  json.add("routing_speedup_ok", speedup_ok);
  json.add("identical", identical);
  maybe_write_bench_json(argc, argv, json);
}

// Where the shared pool starts to pay: the same fan-out of placement cells
// (each cell places `per_cell` demands of the 28-region admission stream
// against its own copy of the capacities, the shape of one scenario of the
// admission sweeps) run inline and on the shared pool at the default thread
// count, for growing total work. The first size at which the pool is faster
// is the crossover fan_out's kFanOutCutoffPlacements is set from.
void run_fan_out_crossover_section(bool smoke) {
  using namespace netent::bench;
  const std::size_t threads = ThreadPool::default_thread_count();
  print_header("Fan-out crossover: inline loop vs shared pool",
               "Placement cells fanned out at 1 thread and at the default thread count (" +
                   std::to_string(threads) + "); the cutoff sits near the crossover.");

  const PlacementWorkload workload = placement_workload();
  topology::Router router(workload.topo, 3);
  router.warm(workload.demands);
  const topology::Router& warmed = router;
  const std::span<const double> caps = router.full_capacities();
  const std::span<const topology::Demand> demands = workload.demands;
  constexpr std::size_t kCells = 256;
  std::vector<CacheAligned<topology::RouteResult>> scratch(threads + 1);
  const auto cells = [&](std::size_t per_cell) {
    return [&, per_cell](std::size_t worker, std::size_t cell) {
      const std::size_t first = (cell * per_cell) % (demands.size() - per_cell + 1);
      warmed.route_warmed_into(demands.subspan(first, per_cell), caps, scratch[worker].value);
    };
  };

  Table table({"placements", "per_cell", "inline_us", "pool_us", "pool_speedup"}, 2);
  std::size_t crossover = 0;
  for (std::size_t per_cell = 1; per_cell <= 512; per_cell *= 2) {
    const std::function<void(std::size_t, std::size_t)> body = cells(per_cell);
    const double inline_ns = best_pass_ns(smoke, [&] {
      for (std::size_t c = 0; c < kCells; ++c) body(0, c);
    });
    const double pool_ns = best_pass_ns(smoke, [&] {
      ThreadPool::shared().parallel_for_with_worker(kCells, body, threads);
    });
    const double speedup = inline_ns / pool_ns;
    const std::size_t placements = kCells * per_cell;
    if (speedup > 1.0 && crossover == 0) crossover = placements;
    table.add_row({static_cast<double>(placements), static_cast<double>(per_cell),
                   inline_ns / 1e3, pool_ns / 1e3, speedup});
  }
  table.print(std::cout);
  std::cout << "\ncrossover: the pool first beats the inline loop at "
            << (crossover == 0 ? std::string("no size measured")
                               : std::to_string(crossover) + " placements")
            << " on " << threads << " threads; kFanOutCutoffPlacements = "
            << kFanOutCutoffPlacements << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // Split our flags from google-benchmark's.
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--metrics-json" || arg.rfind("--metrics-json=", 0) == 0 ||
               arg.rfind("--bench-json=", 0) == 0) {
      // handled after the run
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) bench_args.push_back(min_time.data());

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_routing_placement_section(argc, argv, smoke);
  run_fan_out_crossover_section(smoke);
  netent::bench::maybe_dump_metrics(argc, argv);
  return 0;
}
