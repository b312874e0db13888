// risk-sweep: RiskSimulator::availability_curves, default threads and sweep
// mode, over the capacity-planning sweep input of the approval-vs-SLO
// figure: a 20-region backbone, a 1520-pipe mesh at ~12% of capacity and the
// ~6000-scenario stride sample of up to three simultaneous failures. Scenario
// enumeration, Router::warm and one warm-up sweep are set-up; each step is
// one sweep. The only workload through RiskSimulator and ScenarioSweeper.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_config.h"
#include "risk/failure.h"
#include "risk/simulator.h"
#include "topology/generator.h"
#include "topology/routing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace netent;

constexpr const char* kCurvesSpan = "risk.RiskSimulator::availability_curves";
constexpr const char* kPlacementSpan = "risk.sweep_scenario_placements";
constexpr const char* kWarmSpan = "topology.Router::warm";
constexpr std::size_t kScenarioSample = 6000;

topology::Topology sweep_backbone() {
  Rng rng(20220822);
  topology::GeneratorConfig config;
  config.region_count = 20;
  config.base_capacity = Gbps(600);
  config.max_parallel_fibers = 2;
  return topology::generate_backbone(config, rng);
}

/// Four pipes per ordered region pair, scaled to ~12% of total capacity:
/// failures reroute traffic, yet most demands are untouched by any one.
std::vector<topology::Demand> pipe_mesh(const topology::Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<topology::Demand> demands;
  for (std::uint32_t s = 0; s < topo.region_count(); ++s) {
    for (std::uint32_t d = 0; d < topo.region_count(); ++d) {
      if (s == d) continue;
      for (int r = 0; r < 4; ++r) {
        demands.push_back({RegionId(s), RegionId(d), Gbps(rng.uniform(10.0, 50.0))});
      }
    }
  }
  double total = 0.0;
  for (const auto& demand : demands) total += demand.amount.value();
  const double target = 0.12 * topo.total_capacity().value();
  for (auto& demand : demands) demand.amount = Gbps(demand.amount.value() * target / total);
  return demands;
}

std::uint64_t curves_fingerprint(const std::vector<risk::AvailabilityCurve>& curves) {
  Fingerprint fp;
  for (const auto& curve : curves) {
    fp.mix(curve.outcomes().size());
    for (const auto& [bandwidth, probability] : curve.outcomes()) {
      fp.mix(std::bit_cast<std::uint64_t>(bandwidth));
      fp.mix(std::bit_cast<std::uint64_t>(probability));
    }
  }
  return fp.hash;
}

class RiskSweep final : public Workload {
 public:
  explicit RiskSweep(std::uint64_t seed)
      : Workload(seed), topo_(sweep_backbone()), demands_(pipe_mesh(topo_, seed)) {}

  [[nodiscard]] std::string unit() const override { return "scenarios"; }
  [[nodiscard]] std::string headline() const override { return "sweep"; }

  void setup(Tracer& tracer) override {
    risk::ScenarioConfig config;
    config.max_simultaneous = 3;
    config.min_probability = 1e-10;
    const auto all = risk::enumerate_scenarios(topo_, config);
    const std::size_t stride = std::max<std::size_t>(1, all.size() / kScenarioSample);
    std::vector<risk::FailureScenario> scenarios;
    for (std::size_t s = 0; s < all.size(); s += stride) scenarios.push_back(all[s]);

    router_ = std::make_unique<topology::Router>(topo_, 3);
    {
      const auto span = tracer.span(kWarmSpan, 0);
      router_->warm(demands_);
    }
    simulator_ = std::make_unique<risk::RiskSimulator>(*router_, std::move(scenarios),
                                                       router_->full_capacities());
    const std::uint64_t warm = curves_fingerprint(simulator_->availability_curves(demands_));
    if (!reference_) reference_ = warm;
    expect(*reference_ == warm, "warm-up sweep differs between set-ups of one seed");
  }

  void teardown() override {
    simulator_.reset();
    router_.reset();
  }

  Step step(Tracer& tracer, std::uint64_t index) override {
    const Stopwatch watch;
    std::vector<risk::AvailabilityCurve> curves;
    {
      const auto span = tracer.span(kCurvesSpan, index);
      curves = simulator_->availability_curves(demands_);
    }
    record("sweep", watch);

    const Stopwatch untimed;
    expect(curves_fingerprint(curves) == *reference_, "sweep curves differ between repetitions");
    curves = {};
    return {static_cast<double>(simulator_->scenarios().size()), untimed.cpu_s(),
            untimed.wall_s()};
  }

  /// The placement stage alone, on the same input, once per traced sweep,
  /// for the placement / curve-build split. Run after the sweeps so its
  /// large allocations do not disturb them.
  void diagnose(Tracer& tracer, std::size_t steps) override {
    for (std::size_t i = 0; i < steps; ++i) {
      const auto span = tracer.span(kPlacementSpan, i);
      (void)risk::sweep_scenario_placements(
          *router_, demands_, router_->full_capacities(), simulator_->srlg_index(),
          simulator_->scenarios(), common::ExecConfig{}.resolve(), risk::SweepMode::kIncremental);
    }
  }

  void check() override {
    const auto serial_full = simulator_->availability_curves(demands_, 1, risk::SweepMode::kFull);
    expect(curves_fingerprint(serial_full) == *reference_,
           "curves differ from a serial full-placement sweep");
  }

  void layer_metrics(const TracedPhase& phase, LayerReport& out) const override {
    const double sweep_ms = phase.span_p50_ms(kCurvesSpan);
    const double placement_ms = phase.span_p50_ms(kPlacementSpan);
    const double replayed = phase.counter("risk.replay.demands_replayed");
    const double skipped = phase.counter("risk.replay.demands_skipped");
    const double placement_pct = sweep_ms > 0 ? 100.0 * placement_ms / sweep_ms : 0.0;
    auto& v = out.values;
    v["risk.sweep.placement_pct"] = placement_pct;
    v["risk.sweep.curve_build_pct"] = 100.0 - placement_pct;
    v["risk.replay.demands"] = replayed + skipped;
    v["risk.replay.skip_ratio"] = replayed + skipped > 0 ? skipped / (replayed + skipped) : 0.0;
    v["risk.scenarios_swept"] = phase.counter("risk.scenarios_swept");
    v["topology.warm_pct"] =
        phase.setup_s > 0 ? 100.0 * phase.span_ms(kWarmSpan) / (1000.0 * phase.setup_s) : 0.0;

    MetricSet& d = out.detail;
    d.add("risk.sweep_ms", sweep_ms, "ms");
    d.add("risk.sweep.placement_ms", placement_ms, "ms");
    d.add("risk.sweep.curve_build_ms", sweep_ms - placement_ms, "ms");
    d.add("topology.warm_ms", phase.span_ms(kWarmSpan), "ms");
    d.add("setup_ms", 1000.0 * phase.setup_s, "ms");
  }

  void report(MetricSet& out) const override {
    report_latency(out, "sweep", "sweep");
    out.add("scenarios", static_cast<double>(simulator_->scenarios().size()), "count");
    out.add("demands", static_cast<double>(demands_.size()), "count");
  }

 private:
  const topology::Topology topo_;
  const std::vector<topology::Demand> demands_;
  std::unique_ptr<topology::Router> router_;
  std::unique_ptr<risk::RiskSimulator> simulator_;
  std::optional<std::uint64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_risk_sweep(std::uint64_t seed) {
  return std::make_unique<RiskSweep>(seed);
}

}  // namespace perfbench
