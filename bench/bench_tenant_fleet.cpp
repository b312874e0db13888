// Closed-loop tenant-fleet bench: thousands of synthetic tenants drive the
// declarative front-end (JSON spec -> parse -> compile -> admit -> negotiate)
// against a live AdmissionController under sustained churn, measuring
// end-to-end decision latency (submit -> outcome) and pinning the two
// properties CI gates on:
//
//   decisions_identical        the decision transcript (FNV-1a fingerprint)
//                              is bit-identical across exec configs
//   all_strategies_exercised   every negotiation strategy resolved at least
//                              one rejection (spec.policy.* counters > 0)
//   default_vs_serial_ok       the default exec config (threads unset) runs
//                              the fleet at >= 0.95x serial speed (median
//                              of alternated repetitions)
//
// Usage: ./bench_tenant_fleet [--smoke] [--bench-json=PATH] [--metrics-json]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "netent.h"

using namespace netent;

namespace {

struct FleetRun {
  spec::FleetReport report;
  double seconds = 0.0;
};

FleetRun run_fleet(const topology::Topology& topo, const spec::FleetConfig& fleet_config,
                   std::optional<std::size_t> threads) {
  service::AdmissionConfig config;
  config.approval.realizations = 2;
  // max_simultaneous=1 enumerates < 99.9% scenario mass, so the attainable
  // SLO target is 0.99 — the same setting the fleet writes into its specs.
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.threads = threads;
  config.seed = 20220822;
  config.background = false;
  config.admit_min_fraction = 1.0;  // shortfalls become rejections + proposals
  config.attach_counter_proposals = true;
  service::AdmissionController controller(topo, config);
  spec::TenantFleet fleet(controller, fleet_config);

  const auto start = std::chrono::steady_clock::now();
  FleetRun run;
  run.report = fleet.run();
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_present(argc, argv, "smoke");
  bench::print_header("Tenant fleet (closed-loop contract front-end)",
                      "Decision latency and transcript determinism for a spec-driven fleet "
                      "negotiating against the admission plane.");

  // A backbone tight enough that the premium heavy tenants contend: roughly
  // half of them are rejected with counter-proposals, so every negotiation
  // strategy sees work.
  Rng topo_rng(7);
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 8;
  topo_config.base_capacity = Gbps(400);
  topo_config.max_parallel_fibers = 2;
  const topology::Topology topo = topology::generate_backbone(topo_config, topo_rng);

  spec::FleetConfig fleet_config;
  fleet_config.tenants = 2000;  // >= 2000 even in --smoke: scale IS the bench
  fleet_config.rounds = smoke ? 3 : 6;
  fleet_config.regions = topo.region_count();
  fleet_config.heavy_every = 41;  // coprime to 4: heavies cycle all strategies
  fleet_config.heavy_rate_gbps = 60.0;
  fleet_config.base_rate_lo_gbps = 0.5;
  fleet_config.base_rate_hi_gbps = 2.0;
  fleet_config.slo_availability = 0.99;
  fleet_config.seed = 20220822;

  // Serial reference vs the default exec config, alternated so drift in
  // the host's speed hits both alike: the decisions (and so the transcript
  // fingerprint) must be bit-identical, and the default must not be slower.
  constexpr std::size_t kReps = 5;
  std::vector<double> serial_seconds;
  std::vector<double> default_seconds;
  FleetRun serial;
  FleetRun standard;
  bool decisions_identical = true;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    serial = run_fleet(topo, fleet_config, 1);
    standard = run_fleet(topo, fleet_config, std::nullopt);
    serial_seconds.push_back(serial.seconds);
    default_seconds.push_back(standard.seconds);
    decisions_identical =
        decisions_identical &&
        serial.report.transcript_fingerprint == standard.report.transcript_fingerprint &&
        serial.report.decisions == standard.report.decisions;
  }
  const double serial_median = percentile(serial_seconds, 0.5);
  const double default_median = percentile(default_seconds, 0.5);
  const double default_vs_serial = default_median > 0.0 ? serial_median / default_median : 0.0;
  const bool default_vs_serial_ok = default_vs_serial >= 0.95;

  const spec::FleetReport& report = standard.report;

  bool all_strategies_exercised = true;
  for (std::size_t s = 0; s < spec::kStrategyCount; ++s) {
    all_strategies_exercised = all_strategies_exercised && report.strategy_resolutions[s] > 0;
  }
  if (obs::Registry::enabled()) {
    // The spec.policy.* counters must agree that every strategy fired.
    for (const char* name : {"spec.policy.accept_partial", "spec.policy.move_regions",
                             "spec.policy.demote_qos", "spec.policy.retry_later"}) {
      all_strategies_exercised =
          all_strategies_exercised && obs::Registry::global().counter(name).value() > 0;
    }
  }

  const double p50 = percentile(report.decision_latency_us, 0.50);
  const double p99 = percentile(report.decision_latency_us, 0.99);

  std::cout << "tenants " << fleet_config.tenants << ", rounds " << fleet_config.rounds
            << ", decisions " << report.decisions << "\n"
            << "admitted " << report.admitted << ", rejected " << report.rejected << ", resized "
            << report.resized << ", released " << report.released << "\n"
            << "negotiation: " << report.resubmits << " resubmits, " << report.waits
            << " retries, " << report.give_ups << " give-ups\n";
  for (std::size_t s = 0; s < spec::kStrategyCount; ++s) {
    std::cout << "  " << to_string(static_cast<spec::Strategy>(s)) << ": "
              << report.strategy_resolutions[s] << " resolutions\n";
  }
  std::cout << "decision latency p50 " << p50 << " us, p99 " << p99 << " us\n"
            << "median of " << kReps << ": serial " << serial_median << " s, default exec "
            << default_median << " s (" << default_vs_serial << "x serial speed)\n"
            << "decisions identical across exec configs: "
            << (decisions_identical ? "yes" : "NO") << "\n"
            << "default exec >= 0.95x serial: " << (default_vs_serial_ok ? "true" : "false")
            << "\n"
            << "all strategies exercised: " << (all_strategies_exercised ? "yes" : "NO") << "\n";

  bench::BenchJson json;
  json.add("bench", std::string("tenant_fleet"));
  json.add("tenants", static_cast<std::uint64_t>(fleet_config.tenants));
  json.add("rounds", static_cast<std::uint64_t>(fleet_config.rounds));
  json.add("decisions", static_cast<std::uint64_t>(report.decisions));
  json.add("admitted", static_cast<std::uint64_t>(report.admitted));
  json.add("rejected", static_cast<std::uint64_t>(report.rejected));
  json.add("resubmits", static_cast<std::uint64_t>(report.resubmits));
  json.add("waits", static_cast<std::uint64_t>(report.waits));
  json.add("give_ups", static_cast<std::uint64_t>(report.give_ups));
  json.add("strategy_accept_partial", static_cast<std::uint64_t>(report.strategy_resolutions[0]));
  json.add("strategy_move_regions", static_cast<std::uint64_t>(report.strategy_resolutions[1]));
  json.add("strategy_demote_qos", static_cast<std::uint64_t>(report.strategy_resolutions[2]));
  json.add("strategy_retry_later", static_cast<std::uint64_t>(report.strategy_resolutions[3]));
  json.add("transcript_fingerprint", report.transcript_fingerprint);
  json.add("decisions_identical", decisions_identical);
  json.add("all_strategies_exercised", all_strategies_exercised);
  json.add("decision_p50_us", p50);
  json.add("decision_p99_us", p99);
  json.add("serial_seconds", serial_median);
  json.add("default_seconds", default_median);
  json.add("default_vs_serial", default_vs_serial);
  json.add("default_vs_serial_ok", default_vs_serial_ok);
  bench::maybe_write_bench_json(argc, argv, json);
  bench::maybe_dump_metrics(argc, argv);
  return 0;
}
