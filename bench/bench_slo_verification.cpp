// SLO attainment verification: the granting system's core promise is that
// traffic within the approved entitlement meets the contract availability.
// This bench approves a demanding request mix at several SLO targets and
// replays the failure-scenario distribution against the approvals: achieved
// availability must be >= the promised target for every pipe (and the
// headroom shows how conservative the granting is).
#include "bench_util.h"

#include <chrono>

#include "approval/approval.h"
#include "common/exec_config.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

int main(int argc, char** argv) {
  using namespace netent;
  using namespace netent::bench;

  print_header("SLO verification: promised vs achieved availability",
               "Expect: worst achieved availability >= the SLO target at every target "
               "(the granting invariant), with some conservatism headroom.");

  Rng rng(kSeed);
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 8;
  topo_config.max_parallel_fibers = 2;
  const topology::Topology topo = topology::generate_backbone(topo_config, rng);
  topology::Router router(topo, 3);

  // A demanding mixed-class request set.
  std::vector<hose::PipeRequest> pipes;
  for (std::uint32_t i = 0; i < 48; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    auto d = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    if (d == s) d = (d + 1) % static_cast<std::uint32_t>(topo.region_count());
    const auto qos = static_cast<QosClass>(rng.uniform_int(kQosClassCount));
    pipes.push_back({NpgId(i), qos, RegionId(s), RegionId(d), Gbps(rng.uniform(50.0, 500.0))});
  }

  Table table({"slo_target", "approved_pct_of_request", "worst_achieved", "mean_achieved",
               "violations"},
              6);
  for (const double slo : {0.9, 0.99, 0.999, 0.9998}) {
    approval::ApprovalConfig config;
    config.slo_availability = slo;
    const approval::ApprovalEngine engine(router, config);
    const auto approvals = engine.pipe_approval(pipes);

    double requested = 0.0;
    double approved = 0.0;
    for (const auto& result : approvals) {
      requested += result.request.rate.value();
      approved += result.approved.value();
    }

    const auto attainments = engine.verify(approvals);
    double worst = 1.0;
    double sum = 0.0;
    int violations = 0;
    for (const auto& attainment : attainments) {
      worst = std::min(worst, attainment.achieved_availability);
      sum += attainment.achieved_availability;
      if (attainment.achieved_availability < slo - 1e-9) ++violations;
    }
    table.add_row({slo, approved / requested * 100.0, worst,
                   sum / static_cast<double>(attainments.size()),
                   static_cast<double>(violations)});
  }
  table.print(std::cout);

  // Replay timing: the same failure-distribution replay, full from-scratch
  // placement vs the incremental checkpointed replay, serial and fanned out
  // over the shared pool (attainments are bit-identical throughout).
  print_header("SLO verification replay: full vs incremental",
               "Expect: identical attainments in every row, incremental speedup over the "
               "full serial replay.");
  approval::ApprovalConfig timing_config;
  timing_config.slo_availability = 0.9998;
  timing_config.scenarios.max_simultaneous = 3;
  timing_config.scenarios.min_probability = 1e-10;
  const approval::ApprovalEngine timing_engine(router, timing_config);
  const auto approvals = timing_engine.pipe_approval(pipes);
  const std::size_t timing_scenarios = timing_engine.scenarios().size();

  const auto replay_ms = [&](std::size_t threads, risk::SweepMode mode,
                             std::vector<approval::PipeAttainment>& out) {
    const auto start = std::chrono::steady_clock::now();
    out = timing_engine.verify(approvals, threads, mode);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };
  std::vector<approval::PipeAttainment> reference;
  const double full_serial_ms = replay_ms(1, risk::SweepMode::kFull, reference);

  const auto identical_to_reference = [&](const auto& attainments) {
    bool identical = attainments.size() == reference.size();
    for (std::size_t i = 0; identical && i < attainments.size(); ++i) {
      identical = attainments[i].achieved_availability == reference[i].achieved_availability &&
                  attainments[i].approved.value() == reference[i].approved.value();
    }
    return identical;
  };

  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t replayed_before = reg.counter("risk.replay.demands_replayed").value();
  const std::uint64_t skipped_before = reg.counter("risk.replay.demands_skipped").value();
  const std::uint64_t shorted_before =
      reg.counter("risk.replay.scenarios_short_circuited").value();
  std::vector<approval::PipeAttainment> incremental;
  const double incr_serial_ms = replay_ms(1, risk::SweepMode::kIncremental, incremental);
  const std::uint64_t replayed =
      reg.counter("risk.replay.demands_replayed").value() - replayed_before;
  const std::uint64_t skipped =
      reg.counter("risk.replay.demands_skipped").value() - skipped_before;
  const std::uint64_t shorted =
      reg.counter("risk.replay.scenarios_short_circuited").value() - shorted_before;
  const double replay_skip_ratio =
      replayed + skipped > 0
          ? static_cast<double>(skipped) / static_cast<double>(replayed + skipped)
          : 0.0;
  const double short_circuit_ratio =
      static_cast<double>(shorted) / static_cast<double>(timing_scenarios);
  bool all_identical = identical_to_reference(incremental);

  Table timing({"mode", "threads", "replay_ms", "speedup_vs_full_serial", "identical"}, 2);
  timing.add_row({std::string("full"), 1.0, full_serial_ms, 1.0, std::string("yes")});
  timing.add_row({std::string("incremental"), 1.0, incr_serial_ms,
                  full_serial_ms / incr_serial_ms,
                  std::string(all_identical ? "yes" : "no")});
  // Widest sweep width: --threads=N through the unified exec knob, hardware
  // concurrency otherwise.
  common::ExecConfig exec;
  const std::string threads_flag = netent::bench::flag_value(argc, argv, "threads", "");
  if (!threads_flag.empty()) exec.threads = std::stoul(threads_flag);
  std::vector<std::size_t> counts{2, 4};
  const std::size_t hw = exec.resolve();
  if (hw > 4) counts.push_back(hw);
  double full_parallel_ms = full_serial_ms;
  double incr_parallel_ms = incr_serial_ms;
  for (const std::size_t threads : counts) {
    for (const risk::SweepMode mode : {risk::SweepMode::kFull, risk::SweepMode::kIncremental}) {
      std::vector<approval::PipeAttainment> attainments;
      const double ms = replay_ms(threads, mode, attainments);
      const bool identical = identical_to_reference(attainments);
      all_identical = all_identical && identical;
      const bool is_incremental = mode == risk::SweepMode::kIncremental;
      if (threads == counts.back()) (is_incremental ? incr_parallel_ms : full_parallel_ms) = ms;
      timing.add_row({std::string(is_incremental ? "incremental" : "full"),
                      static_cast<double>(threads), ms, full_serial_ms / ms,
                      std::string(identical ? "yes" : "no")});
    }
  }
  timing.print(std::cout);

  BenchJson json;
  json.add("bench", std::string("slo_verification_replay"));
  json.add("scenarios", static_cast<std::uint64_t>(timing_scenarios));
  json.add("pipes", static_cast<std::uint64_t>(approvals.size()));
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
