// Online admission service throughput/latency: streamed (incremental
// residual-replay) admission versus re-approving the whole admitted set from
// scratch per request, as the admitted-set size grows. The incremental path
// assesses only the new request's pipes against the maintained residuals, so
// its per-request cost is O(window) rather than O(admitted set) — the gap
// this bench quantifies (and the perf-smoke CI gates at >= 2x for 1000
// admitted contracts). Two more sections compare the two-tier fast path
// with exact-only, and the default exec config with serial on a
// release-heavy stream (CI gates default >= 0.95x serial, that releases
// replay at most 0.8 of a full rebuild's placements, and that they make at
// most kReleaseCellFractionBound of the placements they replay).
//
// Usage: ./bench_admission [--smoke] [--bench-json=PATH] [--metrics-json]
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "approval/approval.h"
#include "common/rng.h"
#include "service/admission.h"
#include "topology/generator.h"

namespace {

using namespace netent;

/// 1.5x the smoke stream's release cell fraction (placements made over
/// placements replayed, a count on a seeded stream: 0.0426).
constexpr double kReleaseCellFractionBound = 0.064;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

double percentile(std::vector<double> sorted, double p) {
  std::sort(sorted.begin(), sorted.end());
  const std::size_t index = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[index];
}

std::vector<hose::HoseRequest> contract_hoses(std::uint32_t npg, Rng& rng,
                                              std::size_t region_count) {
  const auto src = static_cast<std::uint32_t>(rng.uniform_int(region_count));
  const auto dst =
      (src + 1 + static_cast<std::uint32_t>(rng.uniform_int(region_count - 1))) %
      static_cast<std::uint32_t>(region_count);
  hose::HoseRequest egress;
  egress.npg = NpgId(npg);
  egress.qos = static_cast<QosClass>(rng.uniform_int(kQosClassCount));
  egress.region = RegionId(src);
  egress.direction = hose::Direction::egress;
  egress.rate = Gbps(rng.uniform(0.5, 4.0));
  hose::HoseRequest ingress = egress;
  ingress.region = RegionId(dst);
  ingress.direction = hose::Direction::ingress;
  return {egress, ingress};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netent::bench;
  const bool smoke = flag_present(argc, argv, "smoke");

  print_header("BENCH admission",
               "Streamed admission (incremental residual replay) vs from-scratch "
               "re-approval of the whole admitted set, by admitted-set size.");

  const topology::Topology topo = topology::figure6_topology();
  service::AdmissionConfig config;
  config.approval.realizations = smoke ? 2 : 3;
  config.approval.slo_availability = 0.999;
  config.approval.scenarios.max_simultaneous = 1;
  config.seed = kSeed;
  config.background = false;          // timed, deterministic windows
  config.attach_counter_proposals = false;  // clean request timing
  service::AdmissionController controller(topo, config);

  // Reference engine for the from-scratch path: same risk model, its own
  // router so warming costs are attributed to the path that pays them.
  topology::Router scratch_router(topo, config.router_paths);
  approval::ApprovalConfig scratch_config = config.approval;
  const approval::ApprovalEngine scratch_engine(scratch_router, scratch_config);

  const std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{100, 1000}
                                               : std::vector<std::size_t>{10, 100, 1000};
  const std::size_t probes = smoke ? 3 : 10;
  const std::size_t scratch_reps = smoke ? 1 : 3;

  Rng rng(kSeed);
  std::vector<hose::HoseRequest> admitted_hoses;  // mirror of the admitted set
  std::uint32_t next_npg = 1;

  Table table({"admitted", "incr_p50_ms", "incr_p99_ms", "incr_req_per_s", "scratch_ms",
               "speedup_p50"},
              2);
  BenchJson json;
  json.add("bench", std::string("admission"));
  json.add("smoke", smoke);
  double speedup_at_1000 = 0.0;

  for (const std::size_t size : sizes) {
    // Grow the admitted set to `size` (untimed). The attempt cap only
    // triggers if the topology saturates before `size` contracts fit.
    std::size_t attempts = 0;
    while (controller.admitted_count() < size && attempts++ < size * 2 + 100) {
      const std::uint32_t npg = next_npg++;
      auto hoses = contract_hoses(npg, rng, topo.region_count());
      const auto outcome = controller.admit(NpgId(npg), "svc" + std::to_string(npg), hoses);
      if (outcome.status == service::AdmissionStatus::admitted) {
        admitted_hoses.insert(admitted_hoses.end(), hoses.begin(), hoses.end());
      }
    }

    // Incremental path: stream probe admissions, one window each.
    std::vector<double> latencies_ms;
    for (std::size_t p = 0; p < probes; ++p) {
      const std::uint32_t npg = next_npg++;
      auto hoses = contract_hoses(npg, rng, topo.region_count());
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = controller.admit(NpgId(npg), "probe", hoses);
      latencies_ms.push_back(ms_since(start));
      if (outcome.status == service::AdmissionStatus::admitted) {
        admitted_hoses.insert(admitted_hoses.end(), hoses.begin(), hoses.end());
      }
    }
    const double incr_p50 = percentile(latencies_ms, 0.50);
    const double incr_p99 = percentile(latencies_ms, 0.99);
    const double req_per_s = incr_p50 > 0.0 ? 1000.0 / incr_p50 : 0.0;

    // From-scratch path: one joint hose_approval over every admitted hose
    // plus the probe — what each request would cost without residual state.
    std::vector<hose::HoseRequest> joint = admitted_hoses;
    const auto probe = contract_hoses(next_npg, rng, topo.region_count());
    joint.insert(joint.end(), probe.begin(), probe.end());
    double scratch_best = 0.0;
    for (std::size_t rep = 0; rep < scratch_reps; ++rep) {
      Rng scratch_rng(kSeed);
      const auto start = std::chrono::steady_clock::now();
      const auto results = scratch_engine.hose_approval(joint, scratch_rng);
      const double ms = ms_since(start);
      if (rep == 0 || ms < scratch_best) scratch_best = ms;
      if (results.empty()) return 1;  // keep the optimizer honest
    }

    const double speedup = incr_p50 > 0.0 ? scratch_best / incr_p50 : 0.0;
    const std::size_t admitted = controller.admitted_count();
    if (size == 1000) speedup_at_1000 = speedup;
    table.add_row({static_cast<double>(admitted), incr_p50, incr_p99, req_per_s, scratch_best,
                   speedup});
    const std::string prefix = "size_" + std::to_string(size) + "_";
    json.add(prefix + "admitted", static_cast<std::uint64_t>(admitted));
    json.add(prefix + "incr_p50_ms", incr_p50);
    json.add(prefix + "incr_p99_ms", incr_p99);
    json.add(prefix + "incr_req_per_s", req_per_s);
    json.add(prefix + "scratch_ms", scratch_best);
    json.add(prefix + "speedup_p50", speedup);
  }
  table.print(std::cout);

  // The incremental state must still match a from-scratch replay exactly
  // after the whole run — the same equivalence the unit tests pin.
  const bool exact =
      controller.residual_snapshot() == controller.rebuild_residuals_from_scratch();
  std::cout << "\nincremental residuals identical to from-scratch rebuild: "
            << (exact ? "yes" : "NO") << '\n';
  std::cout << "speedup_2x_at_1000: " << (speedup_at_1000 >= 2.0 ? "true" : "false") << " ("
            << speedup_at_1000 << "x)\n";

  json.add("residuals_identical", exact);
  json.add("speedup_at_1000", speedup_at_1000);
  json.add("speedup_2x_at_1000", speedup_at_1000 >= 2.0);

  // --- Two-tier fast path: end-to-end admission throughput with the
  // analytical bound on versus exact-only. A reliable backbone (fiber
  // unavailability well under 1 - SLO) is the regime the fast tier is for:
  // clean admits clear the union bound analytically, so the exact scenario
  // sweep runs only for borderline windows. Decisions must stay
  // bit-identical either way; the deferred exact audit (drained untimed)
  // must find zero bound violations.
  print_header("BENCH admission (two-tier fast path)",
               "Streamed admissions with risk::FastEstimator bounds versus the "
               "exact scenario sweep on every window.");

  Rng net_rng(kSeed + 1);
  topology::GeneratorConfig net_config;
  net_config.region_count = 28;
  net_config.base_capacity = Gbps(2000);  // demand-limited: admits stay clean
  net_config.capacity_sigma = 0.2;
  net_config.max_parallel_fibers = 2;
  net_config.mtbf_hours_min = 200000.0;  // reliable fibers: the bound can clear 0.999
  net_config.mtbf_hours_max = 400000.0;
  net_config.mttr_hours_min = 4.0;
  net_config.mttr_hours_max = 12.0;
  const topology::Topology net = topology::generate_backbone(net_config, net_rng);

  service::AdmissionConfig tier_base;
  tier_base.approval.realizations = smoke ? 2 : 3;
  tier_base.approval.slo_availability = 0.999;
  tier_base.approval.scenarios.max_simultaneous = 1;
  tier_base.seed = kSeed;
  tier_base.background = false;
  tier_base.attach_counter_proposals = false;
  tier_base.exec.threads = 1;  // serial: the tier gap, not pool fan-out

  const std::size_t stream_contracts = smoke ? 200 : 400;

  struct StreamResult {
    double ms = 0.0;
    std::vector<double> approved;  // per admitted hose, stream order
    service::AdmissionController::ResidualState residuals;
    service::AdmissionController::FastPathStats stats;
  };
  // One stream on a fresh controller; with the same seed and request stream
  // every run's decisions are identical by construction.
  const auto run_stream = [&](bool fastpath) {
    service::AdmissionConfig cfg = tier_base;
    cfg.approval.fastpath.enabled = fastpath;
    service::AdmissionController ctl(net, cfg);
    Rng stream_rng(kSeed + 7);
    StreamResult result;
    for (std::size_t i = 0; i < stream_contracts; ++i) {
      const auto npg = static_cast<std::uint32_t>(i + 1);
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = ctl.admit(NpgId(npg), "tier" + std::to_string(npg),
                                     contract_hoses(npg, stream_rng, net.region_count()));
      result.ms += ms_since(start);
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
      // The exact audit replay stays off the timed path: drained every 128
      // admits (<= 384 records), under the backlog cap past which a window
      // would audit inline.
      if ((i + 1) % 128 == 0) (void)ctl.audit_fastpath();
    }
    (void)ctl.audit_fastpath();
    result.stats = ctl.fastpath_stats();
    result.residuals = ctl.residual_snapshot();
    return result;
  };

  // The two streams run back to back in kStreamPairs pairs, the first side
  // alternating, and the gate reads the pair with the median exact/two-tier
  // ratio. The host's speed drifts between runs, which a pair largely
  // shares and each side's own best does not: taking each side's best of 2
  // failed the smoke floor in 4-6 of 20 runs on one 4-core VM. Every pair's
  // decisions and residuals must be identical.
  constexpr std::size_t kStreamPairs = 11;
  std::vector<std::pair<double, double>> pairs;  // (exact-only, two-tier) ms
  StreamResult exact_only;
  StreamResult two_tier;
  bool decisions_identical = true;
  for (std::size_t rep = 0; rep < kStreamPairs; ++rep) {
    if (rep % 2 == 0) exact_only = run_stream(false);
    two_tier = run_stream(true);
    if (rep % 2 != 0) exact_only = run_stream(false);
    pairs.emplace_back(exact_only.ms, two_tier.ms);
    decisions_identical = decisions_identical && two_tier.approved == exact_only.approved &&
                          two_tier.residuals == exact_only.residuals;
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.first / a.second < b.first / b.second;
  });
  const auto [exact_ms, two_tier_ms] = pairs[kStreamPairs / 2];
  const double tier_speedup = two_tier_ms > 0.0 ? exact_ms / two_tier_ms : 0.0;
  const std::uint64_t assessments = two_tier.stats.hits + two_tier.stats.fallbacks;
  const double hit_rate =
      assessments > 0 ? static_cast<double>(two_tier.stats.hits) / static_cast<double>(assessments)
                      : 0.0;

  Table tier_table({"contracts", "exact_ms", "fastpath_ms", "speedup", "hit_rate",
                    "audited", "violations"},
                   2);
  tier_table.add_row({static_cast<double>(stream_contracts), exact_ms, two_tier_ms,
                      tier_speedup, hit_rate, static_cast<double>(two_tier.stats.audited),
                      static_cast<double>(two_tier.stats.violations)});
  tier_table.print(std::cout);
  std::cout << "\nmedian of " << kStreamPairs << " alternated pairs; fast-path decisions "
            << "identical to exact-only in every pair: " << (decisions_identical ? "yes" : "NO")
            << '\n';

  json.add("fastpath_contracts", static_cast<std::uint64_t>(stream_contracts));
  json.add("fastpath_exact_ms", exact_ms);
  json.add("fastpath_ms", two_tier_ms);
  // The exact tier itself got faster (the CSR placement layer, the streamed
  // curves), so the tier gap is thin: the full-size stream reads 1.67-1.71x
  // (median pair of 11, 7 runs on a 4-core VM) against its 2x floor, and a
  // full run exits 1. The floor is to be re-based on a parent-vs-change
  // comparison, not loosened.
  const double tier_speedup_floor = smoke ? 1.5 : 2.0;
  json.add("fastpath_speedup", tier_speedup);
  json.add("fastpath_speedup_2x", tier_speedup >= 2.0);
  json.add("fastpath_perf_ok", tier_speedup >= tier_speedup_floor);
  json.add("fastpath_hit_rate", hit_rate);
  json.add("fastpath_hit_rate_ok", hit_rate >= 0.70);
  json.add("fastpath_audited", two_tier.stats.audited);
  json.add("fastpath_audit_violations", two_tier.stats.violations);
  json.add("fastpath_audit_clean", two_tier.stats.violations == 0);
  json.add("fastpath_decisions_identical", decisions_identical);

  // --- Default exec config vs serial on a release-heavy stream: every
  // release replays the commit history behind the released contract's first
  // demand (~0.56 of the ~1.1 M placements of a full rebuild at 2k
  // contracts, for uniform victims), the work the shared pool exists for,
  // while each admit's commit stays under the serial cutoff. The default
  // config must never lose to serial, and decisions must be bit-identical.
  // `release_replay_fraction` is the replayed share of what full rebuilds
  // would have placed: a count on a seeded stream, so it cannot flake, and
  // it reads ~1 if edits silently fall back to full rebuilds.
  print_header("BENCH admission (default exec vs serial)",
               "Release-heavy stream on the 28-region backbone: median per-release "
               "and per-admit latency at 1 thread, the default thread count and 4 "
               "threads; decisions must be identical.");

  const std::size_t exec_population = smoke ? 1000 : 2000;
  const std::size_t exec_releases = smoke ? 10 : 24;
  struct ExecRunResult {
    double release_ms = 0.0;  ///< median per-release latency
    double admit_ms = 0.0;    ///< median per-admit latency (same stream)
    std::uint64_t replayed = 0;   ///< placements the releases replayed
    std::uint64_t cells = 0;      ///< of which they actually made
    std::uint64_t rebuilt = 0;    ///< placements full rebuilds would have run
    std::vector<double> approved;  // per admitted hose, stream order
    service::AdmissionController::ResidualState residuals;
  };
  const auto run_exec = [&](std::optional<std::size_t> threads) {
    service::AdmissionConfig cfg = tier_base;
    cfg.approval.fastpath.enabled = true;
    cfg.exec.threads = threads;
    service::AdmissionController ctl(net, cfg);
    Rng stream_rng(kSeed + 11);
    ExecRunResult result;
    std::vector<service::ContractId> live;
    std::uint32_t npg = 0;
    std::vector<double> admit_ms;
    const auto admit = [&](bool timed) {
      ++npg;
      const auto hoses = contract_hoses(npg, stream_rng, net.region_count());
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = ctl.admit(NpgId(npg), "exec" + std::to_string(npg), hoses);
      if (timed) admit_ms.push_back(ms_since(start));
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
      if (outcome.status == service::AdmissionStatus::admitted) live.push_back(outcome.contract);
    };
    for (std::size_t i = 0; i < exec_population; ++i) admit(false);
    (void)ctl.audit_fastpath();  // the prefill's audit backlog, off the timed admits
    std::vector<double> release_ms;
    for (std::size_t i = 0; i < exec_releases; ++i) {
      const std::size_t victim = stream_rng.uniform_int(live.size());
      const service::AdmissionController::ReplayStats before = ctl.replay_stats();
      const auto start = std::chrono::steady_clock::now();
      (void)ctl.release(live[victim]);
      release_ms.push_back(ms_since(start));
      result.replayed += ctl.replay_stats().placements - before.placements;
      result.cells += ctl.replay_stats().cells - before.cells;
      result.rebuilt += ctl.rebuild_placements();  // the pruned history, from scratch
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      admit(true);
    }
    (void)ctl.audit_fastpath();
    result.release_ms = percentile(release_ms, 0.50);
    result.admit_ms = percentile(admit_ms, 0.50);
    result.residuals = ctl.residual_snapshot();
    return result;
  };

  const unsigned cores = std::thread::hardware_concurrency();
  const ExecRunResult exec_serial = run_exec(1);
  const ExecRunResult exec_default = run_exec(std::nullopt);
  const ExecRunResult exec_four = run_exec(4);
  const bool exec_identical = exec_default.approved == exec_serial.approved &&
                              exec_default.residuals == exec_serial.residuals &&
                              exec_four.approved == exec_serial.approved &&
                              exec_four.residuals == exec_serial.residuals;
  const auto ratio = [](double serial_ms, double other_ms) {
    return other_ms > 0.0 ? serial_ms / other_ms : 0.0;
  };
  const double default_vs_serial = ratio(exec_serial.release_ms, exec_default.release_ms);
  const double four_thread_speedup = ratio(exec_serial.release_ms, exec_four.release_ms);
  const bool default_vs_serial_ok = default_vs_serial >= 0.95;
  const double replay_fraction =
      exec_serial.rebuilt > 0 ? static_cast<double>(exec_serial.replayed) /
                                    static_cast<double>(exec_serial.rebuilt)
                              : 0.0;
  const bool replay_fraction_ok = replay_fraction <= 0.8;
  // The share of those placements the releases actually made: only the
  // scenarios that differ from scenario 0 on the links its fill scanned.
  // Another count on the seeded stream; placing every scenario reads 1.
  const double cell_fraction =
      exec_serial.replayed > 0 ? static_cast<double>(exec_serial.cells) /
                                     static_cast<double>(exec_serial.replayed)
                               : 0.0;
  const bool cell_fraction_ok = cell_fraction <= kReleaseCellFractionBound;

  Table exec_table({"exec", "release_p50_ms", "admit_p50_ms", "release_speedup"}, 3);
  exec_table.add_row({std::string("serial"), exec_serial.release_ms, exec_serial.admit_ms, 1.0});
  exec_table.add_row({std::string("default"), exec_default.release_ms, exec_default.admit_ms,
                      default_vs_serial});
  exec_table.add_row(
      {std::string("4_threads"), exec_four.release_ms, exec_four.admit_ms, four_thread_speedup});
  exec_table.print(std::cout);
  std::cout << "\ncores " << cores << ", " << exec_population << " contracts, "
            << exec_releases << " releases; decisions identical across exec configs: "
            << (exec_identical ? "yes" : "NO") << "\ndefault exec >= 0.95x serial: "
            << (default_vs_serial_ok ? "true" : "false")
            << "\nrelease replay fraction (replayed / full-rebuild placements): "
            << replay_fraction << ", <= 0.8: " << (replay_fraction_ok ? "true" : "false")
            << "\nrelease cell fraction (placements made / replayed): " << cell_fraction
            << ", <= " << kReleaseCellFractionBound << ": " << (cell_fraction_ok ? "true" : "false")
            << '\n';

  json.add("exec_cores", static_cast<std::uint64_t>(cores));
  json.add("exec_contracts", static_cast<std::uint64_t>(exec_population));
  json.add("exec_serial_release_ms", exec_serial.release_ms);
  json.add("exec_default_release_ms", exec_default.release_ms);
  json.add("exec_4_thread_release_ms", exec_four.release_ms);
  json.add("exec_serial_admit_ms", exec_serial.admit_ms);
  json.add("exec_default_admit_ms", exec_default.admit_ms);
  json.add("exec_4_thread_speedup", four_thread_speedup);
  json.add("default_vs_serial", default_vs_serial);
  json.add("default_vs_serial_ok", default_vs_serial_ok);
  json.add("exec_decisions_identical", exec_identical);
  json.add("release_replay_fraction", replay_fraction);
  json.add("release_replay_fraction_ok", replay_fraction_ok);
  json.add("release_cell_fraction", cell_fraction);
  json.add("release_cell_fraction_ok", cell_fraction_ok);

  maybe_write_bench_json(argc, argv, json);
  maybe_dump_metrics(argc, argv);
  const bool tier_ok = tier_speedup >= tier_speedup_floor && hit_rate >= 0.70 &&
                       two_tier.stats.violations == 0 && decisions_identical;
  const bool exec_ok =
      exec_identical && default_vs_serial_ok && replay_fraction_ok && cell_fraction_ok;
  return exact && speedup_at_1000 >= 2.0 && tier_ok && exec_ok ? 0 : 1;
}
