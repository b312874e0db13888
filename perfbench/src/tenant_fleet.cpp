// tenant-fleet: spec::TenantFleet (2000 tenants, 6 rounds) against a
// manual-mode controller on the tight 8-region 400G backbone, with
// admit_min_fraction 1 and counter-proposals on: the only workload through
// the spec front-end and negotiation. Fast path off.
//
// The one workload off the default exec config: it runs serial. At the
// default thread count its wall time is mostly kernel thread start-up, whose
// cost on a shared host moved fleet runs between 2.2 and 5.7 s, beyond any
// bound the benchmark may set; admission-churn and risk-sweep keep measuring
// the default's cost.
//
// Set-up builds a controller and runs one unmeasured fleet of a fixed
// population: a single fleet's work depends on its tenants by up to half
// again, so a seed-drawn set-up fleet would make setup_s a property of the
// seed. Each step is one whole fleet run on a freshly built controller (the
// build is not timed); step i runs the fleet of sub-seed (seed, i), so one
// run's figures average many fleets instead of hanging on one.
#include <algorithm>
#include <array>
#include <memory>
#include <map>
#include <string>

#include "service/admission.h"
#include "spec/fleet.h"
#include "topology/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace netent;

constexpr const char* kFleetSpan = "spec.TenantFleet::run";
constexpr std::uint64_t kSetupFleetSeed = 20221031;
constexpr std::array<const char*, 6> kPolicyCounters = {
    "spec.policy.resolutions", "spec.policy.accept_partial", "spec.policy.move_regions",
    "spec.policy.demote_qos",  "spec.policy.retry_later",    "spec.policy.give_up"};

/// The contended backbone of the tenant-fleet bench: roughly half of the
/// premium heavy tenants are rejected with counter-proposals.
topology::Topology tight_backbone() {
  Rng rng(7);
  topology::GeneratorConfig config;
  config.region_count = 8;
  config.base_capacity = Gbps(400);
  config.max_parallel_fibers = 2;
  return topology::generate_backbone(config, rng);
}

class TenantFleetWorkload final : public Workload {
 public:
  explicit TenantFleetWorkload(std::uint64_t seed) : Workload(seed), topo_(tight_backbone()) {
    fleet_.tenants = 2000;
    fleet_.rounds = 6;
    fleet_.regions = topo_.region_count();
    fleet_.heavy_every = 41;
    fleet_.heavy_rate_gbps = 60.0;
    fleet_.base_rate_lo_gbps = 0.5;
    fleet_.base_rate_hi_gbps = 2.0;
    fleet_.slo_availability = 0.99;
  }

  [[nodiscard]] std::string unit() const override { return "decisions"; }
  /// Per-decision percentiles sit on a steep, input-dependent part of the
  /// latency distribution (a third of decisions land in ~1 ms windows), so
  /// the headline is the time to settle one whole fleet.
  [[nodiscard]] std::string headline() const override { return "fleet_run"; }
  /// A controller is built in well under a millisecond, too little to time
  /// alone; set-up includes one fleet run.
  void setup(Tracer& /*tracer*/) override {
    build_controller();
    spec::FleetConfig config = fleet_;
    config.seed = kSetupFleetSeed;
    const spec::FleetReport report = spec::TenantFleet(*controller_, config).run();
    controller_.reset();
    attempt(report.failed == 0, "set-up fleet run had failed outcomes");
    check_transcript(config.seed, report);
  }

  Step step(Tracer& tracer, std::uint64_t index) override {
    // Every run needs a fresh controller (the fleet's NPGs are reused).
    const Stopwatch build;
    build_controller();
    const double build_cpu_s = build.cpu_s();
    const double build_wall_s = build.wall_s();
    spec::FleetConfig config = fleet_;
    config.seed = seed_ * 1000003 + index;
    spec::TenantFleet fleet(*controller_, config);
    const Stopwatch watch;
    spec::FleetReport report;
    {
      const auto span = tracer.span(kFleetSpan, index);
      report = fleet.run();
    }
    record("fleet_run", watch);
    const Stopwatch untimed;
    controller_.reset();

    double latency_sum_ms = 0.0;
    for (const double us : report.decision_latency_us) {
      record_ms("decision", us / 1000.0);
      latency_sum_ms += us / 1000.0;
    }
    record_ms("fleet_decision_mean",
              latency_sum_ms / static_cast<double>(std::max<std::size_t>(1, report.decisions)));
    decisions_ += static_cast<double>(report.decisions);
    attempt(report.failed == 0, "fleet run had failed outcomes");
    check_transcript(config.seed, report);
    for (std::size_t s = 0; s < spec::kStrategyCount; ++s) {
      strategy_resolutions_[s] += report.strategy_resolutions[s];
    }
    return {static_cast<double>(report.decisions), build_cpu_s + untimed.cpu_s(),
            build_wall_s + untimed.wall_s()};
  }

  /// Every negotiation strategy resolved a rejection in the fleets so far
  /// (one fleet can miss the rarest one).
  void check() override {
    for (std::size_t s = 0; s < spec::kStrategyCount; ++s) {
      expect(strategy_resolutions_[s] > 0,
             "strategy " + std::string(to_string(static_cast<spec::Strategy>(s))) +
                 " never resolved a rejection");
    }
  }

  void layer_metrics(const TracedPhase& phase, LayerReport& out) const override {
    const double window_ms = phase.timer_ms("service.admission.window_seconds");
    const double windows = phase.timer_count("service.admission.window_seconds");
    const double fleet_self_ms = phase.span_ms(kFleetSpan) - window_ms;
    auto& v = out.values;
    v["service.requests"] = phase.counter("service.admission.requests");
    v["service.window_pct"] = phase.pct_of_wall(window_ms);
    v["service.windows"] = phase.counter("service.admission.windows");
    v["service.rebuilds"] = phase.counter("service.admission.rebuilds");
    v["service.shard_jobs"] = phase.counter("service.admission.shard.jobs");
    v["approval.assess_pct"] = phase.pct_of_wall(phase.timer_ms("approval.pipe.assess_seconds"));
    v["approval.counter_proposals"] = phase.counter("service.admission.counter_proposals");
    v["risk.fastpath.assessments"] =
        phase.counter("risk.fastpath.hits") + phase.counter("risk.fastpath.fallbacks");
    v["spec.fleet_self_pct"] = phase.pct_of_wall(fleet_self_ms);
    for (const char* name : kPolicyCounters) v[name] = phase.counter(name);

    MetricSet& d = out.detail;
    d.add("service.window_ms", windows > 0 ? window_ms / windows : 0.0, "ms");
    d.add("spec.fleet_self_ms", fleet_self_ms, "ms");
    d.add("approval.assess_ms", phase.timer_ms("approval.pipe.assess_seconds"), "ms");
  }

  void report(MetricSet& out) const override {
    const auto it = latencies().find("fleet_run");
    const double runs = it == latencies().end() ? 0.0 : static_cast<double>(it->second.size());
    const double run_ms = it == latencies().end() ? 0.0 : median(it->second);
    out.add("fleet_runs", runs, "count");
    out.add("fleet_run_p50_ms", run_ms, "ms");
    out.add("decisions_per_run", runs > 0 ? decisions_ / runs : 0.0, "count");
    report_latency(out, "decision", "decision");
    report_latency(out, "fleet_decision_mean", "decision_mean_per_fleet");
  }

 private:
  void build_controller() {
    service::AdmissionConfig config;
    config.approval.realizations = 2;
    // max_simultaneous=1 enumerates < 99.9% scenario mass, so the attainable
    // SLO target is 0.99 — the setting the fleet writes into its specs.
    config.approval.slo_availability = 0.99;
    config.approval.scenarios.max_simultaneous = 1;
    config.seed = seed_;
    config.background = false;
    config.admit_min_fraction = 1.0;
    config.attach_counter_proposals = true;
    config.exec.threads = 1;  // serial: see the top of this file
    controller_ = std::make_unique<service::AdmissionController>(topo_, config);
  }

  /// The same fleet seed gives the same transcript, in every phase.
  void check_transcript(std::uint64_t fleet_seed, const spec::FleetReport& report) {
    const auto [known, fresh] = fingerprints_.emplace(fleet_seed, report.transcript_fingerprint);
    expect(fresh || known->second == report.transcript_fingerprint,
           "fleet transcript differs between runs of one seed");
  }

  const topology::Topology topo_;
  spec::FleetConfig fleet_;
  std::unique_ptr<service::AdmissionController> controller_;
  std::map<std::uint64_t, std::uint64_t> fingerprints_;  ///< fleet seed -> transcript
  std::array<std::size_t, spec::kStrategyCount> strategy_resolutions_{};
  double decisions_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_tenant_fleet(std::uint64_t seed) {
  return std::make_unique<TenantFleetWorkload>(seed);
}

}  // namespace perfbench
