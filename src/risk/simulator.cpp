#include "risk/simulator.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/check.h"
#include "obs/timer.h"

namespace netent::risk {

namespace {

/// Placement spans are sampled one scenario in this many (by scenario
/// index, so the sampled set is identical for every thread count).
constexpr std::size_t kPlaceSampleStride = 8;

struct SweepMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& sweeps = reg.counter("risk.sweeps");
  obs::Counter& scenarios_swept = reg.counter("risk.scenarios_swept");
  obs::Counter& pipes_assessed = reg.counter("risk.pipes_assessed");
  /// Wall-clock per-scenario placement latency; recorded from pool threads,
  /// so it exercises the sharded write path.
  obs::Histogram& place_seconds = reg.timer_histogram("risk.scenario_place_seconds");
  obs::Gauge& threads = reg.gauge("risk.sweep.threads", /*timing=*/true);
  /// busy / (threads * wall) for the last sweep: how well the scenario
  /// fan-out kept the pool fed (placement cost is skewed, so the tail
  /// scenario can idle the rest of the pool).
  obs::Gauge& utilization_pct = reg.gauge("risk.sweep.utilization_pct", /*timing=*/true);
};

SweepMetrics& metrics() {
  static SweepMetrics instance;
  return instance;
}

/// Incremental-replay accounting (deterministic: the skip/replay split
/// depends only on the scenario and demand sets, never on the schedule).
struct ReplayMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& scenarios_incremental = reg.counter("risk.replay.scenarios_incremental");
  obs::Counter& scenarios_full = reg.counter("risk.replay.scenarios_full");
  obs::Counter& scenarios_short_circuited = reg.counter("risk.replay.scenarios_short_circuited");
  obs::Counter& demands_replayed = reg.counter("risk.replay.demands_replayed");
  obs::Counter& demands_skipped = reg.counter("risk.replay.demands_skipped");
};

ReplayMetrics& replay_metrics() {
  static ReplayMetrics instance;
  return instance;
}

}  // namespace

AvailabilityCurve::AvailabilityCurve(std::vector<std::pair<double, double>> outcomes)
    : outcomes_(std::move(outcomes)) {
  NETENT_EXPECTS(!outcomes_.empty());
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  prefix_mass_.reserve(outcomes_.size());
  for (const auto& [bandwidth, probability] : outcomes_) {
    NETENT_EXPECTS(bandwidth >= 0.0);
    NETENT_EXPECTS(probability >= 0.0);
    total_mass_ += probability;
    prefix_mass_.push_back(total_mass_);
  }
}

double AvailabilityCurve::availability_at(Gbps bandwidth) const {
  // Outcomes are sorted descending, so the qualifying set is a prefix; its
  // mass was pre-accumulated in the same left-to-right order the old linear
  // scan used, so the returned double is bit-identical to that scan.
  const double threshold = bandwidth.value() - 1e-9;
  const auto first_below =
      std::partition_point(outcomes_.begin(), outcomes_.end(),
                           [&](const auto& outcome) { return outcome.first >= threshold; });
  const auto qualifying = static_cast<std::size_t>(first_below - outcomes_.begin());
  return qualifying == 0 ? 0.0 : prefix_mass_[qualifying - 1];
}

Gbps AvailabilityCurve::bandwidth_at(double target_availability) const {
  NETENT_EXPECTS(target_availability > 0.0 && target_availability <= 1.0);
  if (total_mass_ < target_availability) return Gbps(0);
  // prefix_mass_ is non-decreasing (probabilities are >= 0): binary-search
  // the first prefix whose mass covers the target.
  const auto covering =
      std::partition_point(prefix_mass_.begin(), prefix_mass_.end(),
                           [&](double mass) { return mass < target_availability; });
  if (covering == prefix_mass_.end()) return Gbps(outcomes_.back().first);
  return Gbps(outcomes_[static_cast<std::size_t>(covering - prefix_mass_.begin())].first);
}

std::vector<double> scenario_capacities(const topology::SrlgIndex& index,
                                        std::span<const double> base_capacity,
                                        const FailureScenario& scenario) {
  std::vector<double> capacity(base_capacity.begin(), base_capacity.end());
  for (const SrlgId srlg : scenario.down) {
    for (const LinkId lid : index.links_of(srlg)) capacity[lid.value()] = 0.0;
  }
  return capacity;
}

ScenarioCapacityScratch::ScenarioCapacityScratch(const topology::SrlgIndex& index,
                                                 std::span<const double> base_capacity)
    : index_(index), base_(base_capacity), capacity_(base_capacity.begin(), base_capacity.end()) {}

std::span<const double> ScenarioCapacityScratch::apply(const FailureScenario& scenario) {
  for (const LinkId lid : dirty_) capacity_[lid.value()] = base_[lid.value()];
  dirty_.clear();
  for (const SrlgId srlg : scenario.down) {
    for (const LinkId lid : index_.links_of(srlg)) {
      capacity_[lid.value()] = 0.0;
      dirty_.push_back(lid);
    }
  }
  return capacity_;
}

std::vector<std::vector<double>> sweep_scenario_placements(
    topology::Router& router, std::span<const topology::Demand> demands,
    std::span<const double> base_capacity, const topology::SrlgIndex& index,
    std::span<const FailureScenario> scenarios, std::size_t num_threads, SweepMode mode,
    obs::Histogram* scenario_timer, std::size_t timer_stride) {
  NETENT_EXPECTS(!scenarios.empty());
  NETENT_EXPECTS(timer_stride >= 1);

  // Populate the path cache up front; the fan-out below only reads it (the
  // guard turns any accidental lazy insertion into a contract violation).
  router.warm(demands);
  const topology::Router& warmed = router;
  const topology::Router::SweepGuard guard(warmed);

  const std::size_t placements = scenarios.size() * demands.size();
  const std::size_t width = fan_out_width(num_threads, scenarios.size(), placements);

  ReplayMetrics& m = replay_metrics();
  std::vector<std::vector<double>> placed(scenarios.size());
  std::function<void(std::size_t, std::size_t)> run_scenario;

  // Per-worker mutable state (workspaces / capacity scratch) is indexed by
  // the fan-out's worker slot, so scenarios racing over *which* index they
  // claim never share placement state.
  std::optional<topology::ScenarioSweeper> sweeper;
  std::vector<CacheAligned<topology::ScenarioSweeper::Workspace>> workspaces;
  std::vector<CacheAligned<std::optional<ScenarioCapacityScratch>>> scratch;
  std::vector<CacheAligned<topology::RouteResult>> route_scratch;

  if (mode == SweepMode::kIncremental) {
    sweeper.emplace(warmed, demands, base_capacity);
    workspaces.resize(width);
    m.scenarios_incremental.add(scenarios.size());
    run_scenario = [&, scenario_timer, timer_stride](std::size_t worker, std::size_t s) {
      std::optional<obs::ScopedTimer> span;
      if (scenario_timer != nullptr && s % timer_stride == 0) span.emplace(*scenario_timer);
      placed[s].resize(demands.size());
      topology::ScenarioSweeper::ReplayStats stats;
      sweeper->replay(scenarios[s].down, workspaces[worker].value, placed[s], &stats);
      m.demands_replayed.add(stats.demands_replayed);
      m.demands_skipped.add(stats.demands_skipped);
      if (stats.short_circuited) m.scenarios_short_circuited.add();
    };
  } else {
    scratch.resize(width);
    for (auto& slot : scratch) slot.value.emplace(index, base_capacity);
    route_scratch.resize(width);
    m.scenarios_full.add(scenarios.size());
    run_scenario = [&, scenario_timer, timer_stride](std::size_t worker, std::size_t s) {
      std::optional<obs::ScopedTimer> span;
      if (scenario_timer != nullptr && s % timer_stride == 0) span.emplace(*scenario_timer);
      const auto capacity = scratch[worker].value->apply(scenarios[s]);
      // Reuse the worker's RouteResult (and arena residual scratch inside)
      // so steady-state scenarios never touch the heap beyond the per-
      // scenario output vector itself.
      topology::RouteResult& result = route_scratch[worker].value;
      warmed.route_warmed_into(demands, capacity, result);
      NETENT_ENSURES(result.placed_per_demand.size() == demands.size());
      placed[s].assign(result.placed_per_demand.begin(), result.placed_per_demand.end());
    };
  }

  fan_out(num_threads, scenarios.size(), placements, run_scenario);
  return placed;
}

std::vector<AvailabilityCurve> curves_from_placements(
    std::span<const std::vector<double>> placed, std::span<const FailureScenario> scenarios,
    std::size_t demand_count) {
  NETENT_EXPECTS(placed.size() == scenarios.size());
  // Merge back in scenario order: the outcome sequence each curve sees is
  // exactly the serial sweep's, so curves are bit-identical per thread count.
  std::vector<std::vector<std::pair<double, double>>> outcomes(demand_count);
  for (auto& demand_outcomes : outcomes) demand_outcomes.reserve(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t i = 0; i < demand_count; ++i) {
      outcomes[i].emplace_back(placed[s][i], scenarios[s].probability);
    }
  }
  std::vector<AvailabilityCurve> curves;
  curves.reserve(demand_count);
  for (auto& demand_outcomes : outcomes) curves.emplace_back(std::move(demand_outcomes));
  return curves;
}

RiskSimulator::RiskSimulator(topology::Router& router, std::vector<FailureScenario> scenarios,
                             std::span<const double> base_capacity_gbps)
    : router_(router),
      scenarios_(std::move(scenarios)),
      base_capacity_(base_capacity_gbps.begin(), base_capacity_gbps.end()),
      index_(router.topo()) {
  NETENT_EXPECTS(!scenarios_.empty());
  NETENT_EXPECTS(base_capacity_.size() == router_.topo().link_count());
}

bool RiskSimulator::resync(std::vector<FailureScenario> scenarios,
                           std::span<const double> base_capacity_gbps) {
  NETENT_EXPECTS(!scenarios.empty());
  NETENT_EXPECTS(base_capacity_gbps.size() == router_.topo().link_count());
  const bool changed =
      !std::equal(scenarios.begin(), scenarios.end(), scenarios_.begin(), scenarios_.end(),
                  [](const FailureScenario& a, const FailureScenario& b) {
                    return a.probability == b.probability && a.down == b.down;
                  });
  if (changed) scenarios_ = std::move(scenarios);
  base_capacity_.assign(base_capacity_gbps.begin(), base_capacity_gbps.end());
  index_.resync(router_.topo());
  return changed;
}

std::vector<AvailabilityCurve> RiskSimulator::availability_curves(
    std::span<const topology::Demand> pipes, std::size_t num_threads, SweepMode mode) const {
  NETENT_EXPECTS(!pipes.empty());

  SweepMetrics& m = metrics();
  m.sweeps.add();
  m.scenarios_swept.add(scenarios_.size());
  m.pipes_assessed.add(pipes.size());

  const std::size_t width =
      fan_out_width(num_threads, scenarios_.size(), scenarios_.size() * pipes.size());
  const double busy_before = m.place_seconds.sum();
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto placed = sweep_scenario_placements(router_, pipes, base_capacity_, index_,
                                                scenarios_, num_threads, mode, &m.place_seconds,
                                                kPlaceSampleStride);
  if constexpr (obs::kEnabled) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start).count();
    m.threads.set(static_cast<double>(width));
    if (wall > 0.0) {
      // Spans are sampled 1-in-kPlaceSampleStride; scale the sampled busy
      // time back up for the estimate.
      const double busy = (m.place_seconds.sum() - busy_before) *
                          static_cast<double>(kPlaceSampleStride);
      m.utilization_pct.set(100.0 * busy / (wall * static_cast<double>(width)));
    }
  }

  return curves_from_placements(placed, scenarios_, pipes.size());
}

}  // namespace netent::risk
