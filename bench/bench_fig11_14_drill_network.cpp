// Figures 11-14: network-level metrics of the §6 real-world enforcement
// drill, reproduced in simulation. The entitled rate of Coldstorage is cut
// at t=30 min; ACLs then drop 12.5% / 50% / 100% of its non-conforming
// traffic in ~35-minute stages before rollback.
//
// Expected shapes:
//   Fig 11  conforming loss ~0 throughout; non-conforming loss steps through
//           the ACL schedule and recovers after rollback.
//   Fig 12  total rate tracks conforming early (service not busy), the gap
//           grows with demand, total converges to the entitled 1 Tbps during
//           the 100% stage, and recovers to pre-test levels after rollback.
//   Fig 13  conforming RTT flat; non-conforming RTT slightly elevated except
//           during the 100% stage (nothing left to queue).
//   Fig 14  non-conforming SYN rate rises with the drop percentage and falls
//           back after the test.
//
// Flags: --phase-jitter=SECONDS and --faults=SPEC (see drill_flags.h) run
// the drill desynchronized / with runtime fault injection; --bench-json=PATH
// additionally runs the event-engine throughput sweep (events/sec at 200 /
// 1000 / 2000 hosts, per-host cost vs the lockstep baseline);
// --metrics-json dumps the sim.events.* / sim.faults.* obs counters.
#include "bench_util.h"

#include <chrono>

#include "drill_flags.h"
#include "sim/drill.h"
#include "sim/drill_engine.h"

namespace {

using namespace netent;
using namespace netent::bench;

/// One timed engine run; fills `stats` and returns wall milliseconds.
double timed_run_ms(const sim::DrillConfig& config, sim::DrillEngineStats& stats) {
  sim::DrillEngine engine(config, Rng(kSeed));
  const auto start = std::chrono::steady_clock::now();
  const auto ticks = engine.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stats = engine.stats();
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Figures 11-14: enforcement drill, network-level stats",
               "Stages: entitled cut @30min; ACL 12.5% @65, 50% @100, 100% @135; "
               "rollback @170min.");

  sim::DrillConfig config;
  config.host_count = 200;
  try {
    apply_drill_flags(argc, argv, config);
  } catch (const std::exception& error) {
    std::cerr << "bad drill flag: " << error.what() << '\n';
    return 2;
  }
  sim::DrillEngine drill(config, Rng(kSeed));
  const auto ticks = drill.run();

  Table table({"minute", "acl_pct", "entitled_g", "total_g", "conform_g", "loss_conf_pct",
               "loss_nonconf_pct", "rtt_conf_ms", "rtt_nonconf_ms", "syn_conf_s",
               "syn_nonconf_s", "rst_nonconf_s"},
              1);
  for (const auto& tick : ticks) {
    const auto minute = static_cast<int>(tick.t_seconds / 60.0);
    if (minute % 5 != 0 || static_cast<int>(tick.t_seconds) % 60 != 0) continue;
    table.add_row({static_cast<double>(minute), tick.acl_drop_fraction * 100.0, tick.entitled,
                   tick.total_rate, tick.conform_rate, tick.conform_loss_ratio * 100.0,
                   tick.nonconform_loss_ratio * 100.0, tick.conform_rtt_ms,
                   tick.nonconform_rtt_ms, tick.conform_syn_per_s, tick.nonconform_syn_per_s,
                   tick.nonconform_rst_per_s});
  }
  table.print(std::cout);

  // Event-engine throughput section (only when a JSON dump is requested:
  // the sweep re-runs the drill at 200 / 1000 / 2000 hosts). The 200-host
  // lockstep run is the per-host cost baseline; the jittered runs exercise
  // the desynchronized event path (per-agent timers off the sweep grid,
  // delta-aggregated rate store). ISSUE acceptance: 2000-host per-host cost
  // within 2x of the 200-host lockstep baseline.
  if (!flag_value(argc, argv, "bench-json", "").empty()) {
    BenchJson json;
    json.add("bench", std::string("drill_engine"));
    json.add("duration_seconds", config.duration_seconds);
    json.add("tick_seconds", config.tick_seconds);

    sim::DrillConfig baseline = config;
    baseline.host_count = 200;
    baseline.phase_jitter_seconds = 0.0;
    baseline.faults.clear();
    sim::DrillEngineStats stats;
    const double baseline_ms = timed_run_ms(baseline, stats);
    const double baseline_host_tick_ns = baseline_ms * 1e6 /
                                         (static_cast<double>(baseline.host_count) *
                                          static_cast<double>(stats.ticks_recorded));
    json.add("lockstep200_wall_ms", baseline_ms);
    json.add("lockstep200_events_executed", stats.events_executed);
    json.add("lockstep200_per_host_tick_ns", baseline_host_tick_ns);

    double jitter2000_host_tick_ns = 0.0;
    for (const std::size_t hosts : {std::size_t{200}, std::size_t{1000}, std::size_t{2000}}) {
      sim::DrillConfig jittered = baseline;
      jittered.host_count = hosts;
      jittered.phase_jitter_seconds = jittered.tick_seconds;
      const double ms = timed_run_ms(jittered, stats);
      const double per_host_tick_ns =
          ms * 1e6 /
          (static_cast<double>(hosts) * static_cast<double>(stats.ticks_recorded));
      if (hosts == 2000) jitter2000_host_tick_ns = per_host_tick_ns;
      const std::string prefix = "jitter" + std::to_string(hosts) + "_";
      json.add(prefix + "wall_ms", ms);
      json.add(prefix + "events_executed", stats.events_executed);
      json.add(prefix + "events_per_sec", static_cast<double>(stats.events_executed) / ms * 1e3);
      json.add(prefix + "per_host_tick_ns", per_host_tick_ns);
    }
    const double ratio = jitter2000_host_tick_ns / baseline_host_tick_ns;
    json.add("per_host_cost_ratio_2000_vs_200_lockstep", ratio);
    json.add("within_2x", ratio <= 2.0);
    maybe_write_bench_json(argc, argv, json);
  }
  maybe_dump_metrics(argc, argv);
  return 0;
}
