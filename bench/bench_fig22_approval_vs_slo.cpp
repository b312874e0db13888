// Figure 22: bandwidth-approval percentage versus the availability SLO
// target. Paper claim: as the availability requirement rises, more capacity
// must be reserved against failures, so the approved share of requests
// falls; egress and ingress exhibit similar trends.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "approval/approval.h"
#include "common/thread_pool.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "risk/simulator.h"
#include "topology/srlg_index.h"

int main(int argc, char** argv) {
  using namespace netent;
  using namespace netent::bench;
  using approval::ApprovalEngine;

  print_header("Figure 22: approval percentage vs availability SLO",
               "Expect: approval percentage non-increasing in the SLO target; egress and "
               "ingress track each other.");

  Rng rng(kSeed);
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 8;
  topo_config.base_capacity = Gbps(500);
  topo_config.max_parallel_fibers = 2;
  const topology::Topology topo = topology::generate_backbone(topo_config, rng);

  // A demanding fleet: total demand comparable to the backbone capacity so
  // the SLO actually bites.
  traffic::FleetConfig fleet_config;
  fleet_config.region_count = 8;
  fleet_config.service_count = 8;
  fleet_config.high_touch_count = 4;
  fleet_config.total_gbps = 2500.0;
  const auto fleet = traffic::generate_fleet(fleet_config, rng);

  // Hose requests straight from the service profiles.
  std::vector<hose::PipeRequest> pipes;
  for (const auto& svc : fleet) {
    const traffic::TrafficMatrix tm = traffic::service_matrix(svc, svc.mean_rate_gbps());
    for (const auto& demand : tm.demands()) {
      if (demand.amount < Gbps(1)) continue;
      pipes.push_back({svc.id, svc.qos_mix.front().qos, demand.src, demand.dst, demand.amount});
    }
  }
  const auto hoses = hose::aggregate_to_hoses(pipes, topo.region_count());

  Table table({"availability_slo", "egress_approved_pct", "ingress_approved_pct"}, 2);
  topology::Router router(topo, 3);
  for (const double slo : {0.9, 0.99, 0.999, 0.9998, 0.9999, 0.99995}) {
    approval::ApprovalConfig config;
    config.slo_availability = slo;
    config.realizations = 6;
    // Triple-failure scenarios are needed to resolve availabilities beyond
    // ~0.9999 (the mass of >2 simultaneous fiber cuts is no longer
    // negligible at those targets).
    config.scenarios.max_simultaneous = 3;
    config.scenarios.min_probability = 1e-10;
    const ApprovalEngine engine(router, config);
    Rng approval_rng(kSeed);
    const auto results = engine.hose_approval(hoses, approval_rng);
    std::ostringstream slo_text;
    slo_text << std::setprecision(7) << slo;
    table.add_row({slo_text.str(), approval_percentage(results, hose::Direction::egress) * 100.0,
                   approval_percentage(results, hose::Direction::ingress) * 100.0});
  }
  table.print(std::cout);

  // Scenario-sweep timing: the per-scenario placement engine underneath the
  // availability curves, full from-scratch placement vs the incremental
  // checkpointed replay, both serial and fanned out over the shared pool.
  // The workload is a production-scale 20-region backbone with a
  // uniform pipe mesh at moderate utilization — the single-digit-failure
  // regime (a scenario zeroes ~2-4% of the links) the incremental engine
  // targets. Placed matrices must be bit-identical across modes and thread
  // counts (the determinism and exactness guarantees).
  print_header("Risk-scenario sweep: full vs incremental replay",
               "Expect: identical=yes in every row and the incremental replay no slower "
               "than the full serial sweep (the CSR placement layer narrowed the gap by "
               "making from-scratch placement itself cheap).");
  topology::GeneratorConfig sweep_topo_config;
  sweep_topo_config.region_count = 20;
  sweep_topo_config.base_capacity = Gbps(600);
  sweep_topo_config.max_parallel_fibers = 2;
  Rng sweep_rng(kSeed);
  const topology::Topology sweep_topo = topology::generate_backbone(sweep_topo_config, sweep_rng);

  std::vector<topology::Demand> demands;
  for (std::uint32_t s = 0; s < sweep_topo.region_count(); ++s) {
    for (std::uint32_t d = 0; d < sweep_topo.region_count(); ++d) {
      if (s == d) continue;
      for (int r = 0; r < 4; ++r) {
        demands.push_back({RegionId(s), RegionId(d), Gbps(sweep_rng.uniform(10.0, 50.0))});
      }
    }
  }
  // Scale the mesh to ~12% of total backbone capacity: high enough that
  // failures genuinely reroute traffic, low enough that most demands are
  // untouched by any one scenario.
  double mesh_total = 0.0;
  for (const auto& demand : demands) mesh_total += demand.amount.value();
  const double mesh_target = 0.12 * sweep_topo.total_capacity().value();
  for (auto& demand : demands) {
    demand.amount = Gbps(demand.amount.value() * mesh_target / mesh_total);
  }

  risk::ScenarioConfig scenario_config;
  scenario_config.max_simultaneous = 3;
  scenario_config.min_probability = 1e-10;
  const auto all_scenarios = risk::enumerate_scenarios(sweep_topo, scenario_config);
  // Stride-sample the scenario set so the placed matrices (scenarios x
  // demands doubles, two copies held for the bit-equality check) stay within
  // a bench-friendly footprint while keeping the 1/2/3-failure mix.
  const std::size_t stride = std::max<std::size_t>(1, all_scenarios.size() / 6000);
  std::vector<risk::FailureScenario> scenarios;
  for (std::size_t s = 0; s < all_scenarios.size(); s += stride) {
    scenarios.push_back(all_scenarios[s]);
  }

  topology::Router sweep_router(sweep_topo, 3);
  sweep_router.warm(demands);
  const std::span<const double> base_capacity = sweep_router.full_capacities();
  const topology::SrlgIndex srlg_index(sweep_topo);

  const auto sweep_ms = [&](std::size_t threads, risk::SweepMode mode,
                            std::vector<std::vector<double>>& out) {
    const auto start = std::chrono::steady_clock::now();
    out = risk::sweep_scenario_placements(sweep_router, demands, base_capacity, srlg_index,
                                          scenarios, threads, mode);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };
  std::vector<std::vector<double>> reference_placed;
  const double full_serial_ms = sweep_ms(1, risk::SweepMode::kFull, reference_placed);

  const auto identical_to_reference = [&](const std::vector<std::vector<double>>& placed) {
    bool identical = placed.size() == reference_placed.size();
    for (std::size_t s = 0; identical && s < placed.size(); ++s) {
      identical = placed[s].size() == reference_placed[s].size() &&
                  std::equal(placed[s].begin(), placed[s].end(), reference_placed[s].begin());
    }
    return identical;
  };

  // Replay-skip accounting from the obs counters (deltas around one
  // incremental sweep; identical for every thread count).
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t replayed_before = reg.counter("risk.replay.demands_replayed").value();
  const std::uint64_t skipped_before = reg.counter("risk.replay.demands_skipped").value();
  const std::uint64_t shorted_before =
      reg.counter("risk.replay.scenarios_short_circuited").value();
  std::vector<std::vector<double>> incremental_placed;
  const double incr_serial_ms = sweep_ms(1, risk::SweepMode::kIncremental, incremental_placed);
  const std::uint64_t replayed = reg.counter("risk.replay.demands_replayed").value() -
                                 replayed_before;
  const std::uint64_t skipped = reg.counter("risk.replay.demands_skipped").value() -
                                skipped_before;
  const std::uint64_t shorted = reg.counter("risk.replay.scenarios_short_circuited").value() -
                                shorted_before;
  const double replay_skip_ratio =
      replayed + skipped > 0 ? static_cast<double>(skipped) /
                                   static_cast<double>(replayed + skipped)
                             : 0.0;
  const double short_circuit_ratio =
      static_cast<double>(shorted) / static_cast<double>(scenarios.size());
  const bool incr_serial_identical = identical_to_reference(incremental_placed);

  Table timing({"mode", "threads", "scenarios", "sweep_ms", "speedup_vs_full_serial",
                "identical"},
               2);
  timing.add_row({std::string("full"), 1.0, static_cast<double>(scenarios.size()),
                  full_serial_ms, 1.0, std::string("yes")});
  timing.add_row({std::string("incremental"), 1.0, static_cast<double>(scenarios.size()),
                  incr_serial_ms, full_serial_ms / incr_serial_ms,
                  std::string(incr_serial_identical ? "yes" : "no")});

  // Widest sweep width: --threads=N through the unified exec knob, hardware
  // concurrency otherwise.
  common::ExecConfig exec;
  const std::string threads_flag = netent::bench::flag_value(argc, argv, "threads", "");
  if (!threads_flag.empty()) exec.threads = std::stoul(threads_flag);
  std::vector<std::size_t> counts{2, 4};
  const std::size_t hw = exec.resolve();
  if (hw > 4) counts.push_back(hw);
  bool all_identical = incr_serial_identical;
  double full_parallel_ms = full_serial_ms;
  double incr_parallel_ms = incr_serial_ms;
  for (const std::size_t threads : counts) {
    for (const risk::SweepMode mode : {risk::SweepMode::kFull, risk::SweepMode::kIncremental}) {
      std::vector<std::vector<double>> placed;
      const double ms = sweep_ms(threads, mode, placed);
      const bool identical = identical_to_reference(placed);
      all_identical = all_identical && identical;
      const bool incremental = mode == risk::SweepMode::kIncremental;
      if (threads == counts.back()) (incremental ? incr_parallel_ms : full_parallel_ms) = ms;
      timing.add_row({std::string(incremental ? "incremental" : "full"),
                      static_cast<double>(threads), static_cast<double>(scenarios.size()), ms,
                      full_serial_ms / ms, std::string(identical ? "yes" : "no")});
    }
  }
  timing.print(std::cout);

  BenchJson json;
  json.add("bench", std::string("fig22_risk_sweep"));
  json.add("scenarios", static_cast<std::uint64_t>(scenarios.size()));
  json.add("scenarios_enumerated", static_cast<std::uint64_t>(all_scenarios.size()));
  json.add("pipes", static_cast<std::uint64_t>(demands.size()));
  json.add("full_serial_ms", full_serial_ms);
  json.add("incremental_serial_ms", incr_serial_ms);
  json.add("full_parallel_ms", full_parallel_ms);
  json.add("incremental_parallel_ms", incr_parallel_ms);
  json.add("parallel_threads", static_cast<std::uint64_t>(counts.back()));
  json.add("speedup_serial", full_serial_ms / incr_serial_ms);
  json.add("speedup_parallel", full_parallel_ms / incr_parallel_ms);
  json.add("replay_skip_ratio", replay_skip_ratio);
  json.add("short_circuit_ratio", short_circuit_ratio);
  json.add("identical", all_identical);
  maybe_write_bench_json(argc, argv, json);
  maybe_dump_metrics(argc, argv);
  return 0;
}
