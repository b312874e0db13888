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
  /// placement busy / (threads * wall) for the last sweep, the wall ending
  /// with the last placement: how well the scenario fan-out kept the pool
  /// fed (placement cost is skewed, so the tail scenario can idle the rest
  /// of the pool).
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

using Breakpoints = std::vector<std::pair<double, double>>;

/// Appends one outcome to breakpoints built in descending-bandwidth order:
/// the mass accumulates left to right, and an outcome tied with the last
/// breakpoint's bandwidth joins its group.
void append_outcome(Breakpoints& breakpoints, double bandwidth, double probability) {
  const double mass = (breakpoints.empty() ? 0.0 : breakpoints.back().second) + probability;
  if (!breakpoints.empty() && breakpoints.back().first == bandwidth) {
    breakpoints.back().second = mass;
  } else {
    breakpoints.emplace_back(bandwidth, mass);
  }
}

/// A placement that differs from its demand's reference. `index` is the
/// demand while cells are grouped per scenario, and the scenario once
/// regrouped per demand.
struct Cell {
  std::size_t index = 0;
  double placed = 0.0;
};

/// One demand's breakpoints from its deviating (scenario, placed) cells in
/// scenario order, in the dense curve's stable order: the deviations above
/// the reference, the reference group, then the deviations below, ties in
/// scenario order. The reference group adds every non-deviating scenario's
/// probability in scenario order, the same additions the dense curve makes,
/// so every mass is bit-identical to it.
Breakpoints streamed_curve(std::span<const Cell> deviating, double reference,
                           std::span<const double> probability) {
  std::vector<Cell> order(deviating.begin(), deviating.end());
  std::stable_sort(order.begin(), order.end(),
                   [](const Cell& a, const Cell& b) { return a.placed > b.placed; });
  Breakpoints curve;
  auto next = order.begin();
  for (; next != order.end() && next->placed > reference; ++next) {
    append_outcome(curve, next->placed, probability[next->index]);
  }
  std::size_t s = 0;
  double mass = curve.empty() ? 0.0 : curve.back().second;
  for (const Cell& skip : deviating) {
    for (; s < skip.index; ++s) mass += probability[s];
    s = skip.index + 1;
  }
  for (; s < probability.size(); ++s) mass += probability[s];
  curve.emplace_back(reference, mass);
  for (; next != order.end(); ++next) {
    append_outcome(curve, next->placed, probability[next->index]);
  }
  return curve;
}

}  // namespace

AvailabilityCurve::AvailabilityCurve(std::vector<std::pair<double, double>> outcomes) {
  NETENT_EXPECTS(!outcomes.empty());
  for (const auto& [bandwidth, probability] : outcomes) {
    NETENT_EXPECTS(bandwidth >= 0.0);
    NETENT_EXPECTS(probability >= 0.0);
  }
  // Stable, so tied bandwidths keep their input (scenario) order and the
  // masses do not depend on the sort implementation.
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [bandwidth, probability] : outcomes) {
    append_outcome(breakpoints_, bandwidth, probability);
  }
}

double AvailabilityCurve::availability_at(Gbps bandwidth) const {
  // Breakpoints are sorted descending, so the qualifying set is a prefix and
  // its mass is the last qualifying breakpoint's.
  const double threshold = bandwidth.value() - 1e-9;
  const auto first_below =
      std::partition_point(breakpoints_.begin(), breakpoints_.end(),
                           [&](const auto& breakpoint) { return breakpoint.first >= threshold; });
  return first_below == breakpoints_.begin() ? 0.0 : std::prev(first_below)->second;
}

Gbps AvailabilityCurve::bandwidth_at(double target_availability) const {
  NETENT_EXPECTS(target_availability > 0.0 && target_availability <= 1.0);
  if (total_mass() < target_availability) return Gbps(0);
  // Masses are non-decreasing (probabilities are >= 0), and the last one
  // covers the target: binary-search the first that does.
  const auto covering =
      std::partition_point(breakpoints_.begin(), breakpoints_.end(), [&](const auto& breakpoint) {
        return breakpoint.second < target_availability;
      });
  return Gbps(covering->first);
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

namespace {

const topology::Router& warmed(topology::Router& router,
                               std::span<const topology::Demand> demands) {
  router.warm(demands);
  return router;
}

/// One sweep's placement set-up, shared by the dense and the streamed
/// sweep: warms the router and guards its path cache for the sweep's
/// lifetime (the fan-out only reads it; the guard turns any accidental lazy
/// insertion into a contract violation), and keeps per-worker-slot state (a
/// sweeper workspace, or the capacity scratch and RouteResult of a full
/// placement) so that scenarios racing over which index they claim never
/// share placement state.
class ScenarioPlacer {
 public:
  ScenarioPlacer(topology::Router& router, std::span<const topology::Demand> demands,
                 std::span<const double> base_capacity, const topology::SrlgIndex& index,
                 std::span<const FailureScenario> scenarios, std::size_t width, SweepMode mode,
                 obs::Histogram* scenario_timer, std::size_t timer_stride)
      : router_(warmed(router, demands)),
        guard_(router_),
        demands_(demands),
        scenarios_(scenarios),
        scenario_timer_(scenario_timer),
        timer_stride_(timer_stride),
        slots_(width) {
    NETENT_EXPECTS(timer_stride >= 1);
    ReplayMetrics& m = replay_metrics();
    if (mode == SweepMode::kIncremental) {
      sweeper_.emplace(router_, demands, base_capacity);
      for (auto& slot : slots_) slot.value.placed.resize(demands.size());
      m.scenarios_incremental.add(scenarios.size());
    } else {
      for (auto& slot : slots_) slot.value.capacity.emplace(index, base_capacity);
      m.scenarios_full.add(scenarios.size());
    }
  }

  /// Placed Gbps per demand under scenario `s`; valid until the slot's next
  /// call.
  std::span<const double> place(std::size_t worker, std::size_t s) {
    std::optional<obs::ScopedTimer> span;
    if (scenario_timer_ != nullptr && s % timer_stride_ == 0) span.emplace(*scenario_timer_);
    Slot& slot = slots_[worker].value;
    if (sweeper_) {
      topology::ScenarioSweeper::ReplayStats stats;
      sweeper_->replay(scenarios_[s].down, slot.workspace, slot.placed, &stats);
      ReplayMetrics& m = replay_metrics();
      m.demands_replayed.add(stats.demands_replayed);
      m.demands_skipped.add(stats.demands_skipped);
      if (stats.short_circuited) m.scenarios_short_circuited.add();
      return slot.placed;
    }
    // The worker's RouteResult (and arena residual scratch inside) is
    // reused, so steady-state scenarios never touch the heap.
    router_.route_warmed_into(demands_, slot.capacity->apply(scenarios_[s]), slot.route);
    NETENT_ENSURES(slot.route.placed_per_demand.size() == demands_.size());
    return slot.route.placed_per_demand;
  }

 private:
  struct Slot {
    topology::ScenarioSweeper::Workspace workspace;
    std::vector<double> placed;
    std::optional<ScenarioCapacityScratch> capacity;
    topology::RouteResult route;
  };

  const topology::Router& router_;
  const topology::Router::SweepGuard guard_;
  std::span<const topology::Demand> demands_;
  std::span<const FailureScenario> scenarios_;
  obs::Histogram* scenario_timer_;
  std::size_t timer_stride_;
  std::optional<topology::ScenarioSweeper> sweeper_;
  std::vector<CacheAligned<Slot>> slots_;
};

}  // namespace

std::vector<std::vector<double>> sweep_scenario_placements(
    topology::Router& router, std::span<const topology::Demand> demands,
    std::span<const double> base_capacity, const topology::SrlgIndex& index,
    std::span<const FailureScenario> scenarios, std::size_t num_threads, SweepMode mode,
    obs::Histogram* scenario_timer, std::size_t timer_stride) {
  NETENT_EXPECTS(!scenarios.empty());
  const std::size_t placements = scenarios.size() * demands.size();
  ScenarioPlacer placer(router, demands, base_capacity, index, scenarios,
                        fan_out_width(num_threads, scenarios.size(), placements), mode,
                        scenario_timer, timer_stride);
  std::vector<std::vector<double>> placed(scenarios.size());
  fan_out(num_threads, scenarios.size(), placements, [&](std::size_t worker, std::size_t s) {
    const std::span<const double> scenario_placed = placer.place(worker, s);
    placed[s].assign(scenario_placed.begin(), scenario_placed.end());
  });
  return placed;
}

std::vector<AvailabilityCurve> curves_from_sweep(std::span<const FailureScenario> scenarios,
                                                 std::size_t demand_count,
                                                 std::size_t num_threads,
                                                 const PlaceScenario& place) {
  NETENT_EXPECTS(!scenarios.empty());
  NETENT_EXPECTS(place != nullptr);
  if (demand_count == 0) return {};
  std::vector<double> probability(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    probability[s] = scenarios[s].probability;
    NETENT_EXPECTS(probability[s] >= 0.0);
  }

  const std::span<const double> first = place(0, 0);
  NETENT_EXPECTS(first.size() == demand_count);
  const std::vector<double> reference(first.begin(), first.end());
  for (const double placed : reference) NETENT_EXPECTS(placed >= 0.0);

  // A cell deviates when `placed != reference`: exactly the cells the dense
  // sort does not tie with the reference.
  const std::size_t cells = scenarios.size() * demand_count;
  std::vector<std::vector<Cell>> by_scenario(scenarios.size());
  fan_out(num_threads, scenarios.size() - 1, cells - demand_count,
          [&](std::size_t worker, std::size_t i) {
            const std::size_t s = i + 1;
            const std::span<const double> placed = place(worker, s);
            NETENT_EXPECTS(placed.size() == demand_count);
            for (std::size_t d = 0; d < demand_count; ++d) {
              if (placed[d] == reference[d]) continue;
              NETENT_EXPECTS(placed[d] >= 0.0);
              by_scenario[s].push_back({d, placed[d]});
            }
          });
  std::vector<std::vector<Cell>> deviations(demand_count);
  for (std::size_t s = 1; s < scenarios.size(); ++s) {
    for (const Cell& cell : by_scenario[s]) deviations[cell.index].push_back({s, cell.placed});
  }

  // The reference-group walk visits up to every scenario, so this
  // fan-out's work is counted in cells.
  std::vector<Breakpoints> breakpoints(demand_count);
  fan_out(num_threads, demand_count, cells, [&](std::size_t, std::size_t d) {
    breakpoints[d] = streamed_curve(deviations[d], reference[d], probability);
  });

  std::vector<AvailabilityCurve> curves;
  curves.reserve(demand_count);
  for (Breakpoints& curve : breakpoints) {
    curves.push_back(AvailabilityCurve(std::move(curve), AvailabilityCurve::FromBreakpoints{}));
  }
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
  ScenarioPlacer placer(router_, pipes, base_capacity_, index_, scenarios_, width, mode,
                        &m.place_seconds, kPlaceSampleStride);
  // When each worker slot finished its last placement: the latest is where
  // the scenario fan-out ends, before the regroup and the curve fan-out.
  std::vector<CacheAligned<std::chrono::steady_clock::time_point>> placed_at(
      width, CacheAligned<std::chrono::steady_clock::time_point>{sweep_start});
  const auto place = [&](std::size_t worker, std::size_t s) {
    const std::span<const double> placed = placer.place(worker, s);
    if constexpr (obs::kEnabled) placed_at[worker].value = std::chrono::steady_clock::now();
    return placed;
  };
  auto curves = curves_from_sweep(scenarios_, pipes.size(), num_threads, place);
  if constexpr (obs::kEnabled) {
    const auto placed_until =
        std::max_element(placed_at.begin(), placed_at.end(), [](const auto& a, const auto& b) {
          return a.value < b.value;
        })->value;
    const double wall = std::chrono::duration<double>(placed_until - sweep_start).count();
    m.threads.set(static_cast<double>(width));
    if (wall > 0.0) {
      // Spans are sampled 1-in-kPlaceSampleStride; scale the sampled busy
      // time back up for the estimate.
      const double busy = (m.place_seconds.sum() - busy_before) *
                          static_cast<double>(kPlaceSampleStride);
      m.utilization_pct.set(100.0 * busy / (wall * static_cast<double>(width)));
    }
  }

  return curves;
}

}  // namespace netent::risk
