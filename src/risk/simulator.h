// The Risk Simulation System (RSS, §4.3): generates per-pipe bandwidth
// availability curves by placing a batch of pipe requests on the network
// under every enumerated failure scenario. The approval engine reads the
// curve at the contract's SLO target to decide how much of a request can be
// guaranteed.
//
// Scenarios are independent placements, so the sweep fans out over the
// shared thread pool (common/thread_pool.h fan_out; small sweeps stay
// inline). Curves are STREAMED from the sweep (curves_from_sweep): scenario
// 0 is every pipe's reference placement, and only the (pipe, placed) cells
// that differ from it are kept, so a sweep never holds the [scenario][pipe]
// matrix. A curve is its breakpoint list, built in the dense curve's stable
// order with every mass summed in scenario order, which makes the curves
// bit-identical to the dense construction for every thread count. By
// default each scenario is replayed INCREMENTALLY
// (topology::ScenarioSweeper): the SRLG-indexed engine skips the unaffected
// placement prefix via baseline checkpoints and short-circuits scenarios
// that touch no cached path — still bit-identical to the full from-scratch
// placement (SweepMode::kFull, kept for benchmarking and equivalence tests).
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "risk/failure.h"
#include "topology/replay.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"

namespace netent::risk {

/// Places every demand of a sweep under one scenario with worker slot
/// `worker`'s scratch and returns the placed Gbps per demand. The span must
/// stay valid until the slot's next call.
using PlaceScenario =
    std::function<std::span<const double>(std::size_t worker, std::size_t scenario)>;

/// Availability as a function of delivered bandwidth for one pipe:
/// A(b) = P(admissible bandwidth >= b) over failure scenarios. Probability
/// mass not covered by the enumeration counts as unavailable (conservative).
class AvailabilityCurve {
 public:
  /// The dense construction, and the reference the streamed one is tested
  /// against. `outcomes` pairs (admissible Gbps under a scenario, the
  /// scenario's probability). Outcomes are ordered by bandwidth, descending,
  /// with ties in input order; masses accumulate left to right in that order.
  explicit AvailabilityCurve(std::vector<std::pair<double, double>> outcomes);

  /// P(admissible >= bandwidth). O(log breakpoints).
  [[nodiscard]] double availability_at(Gbps bandwidth) const;

  /// Largest bandwidth whose availability meets `target` (the §4.3 "flow
  /// volume associated with the desired SLO target"). Returns 0 Gbps when
  /// even zero-bandwidth availability (total enumerated mass) misses target.
  /// O(log breakpoints).
  [[nodiscard]] Gbps bandwidth_at(double target_availability) const;

  /// The breakpoints: one (bandwidth, P(admissible >= bandwidth)) pair per
  /// distinct admissible bandwidth, bandwidth descending. Exposed so tests
  /// can assert bit-identity between sweeps.
  [[nodiscard]] std::span<const std::pair<double, double>> outcomes() const {
    return breakpoints_;
  }

  /// Total enumerated probability mass (<= 1).
  [[nodiscard]] double total_mass() const { return breakpoints_.back().second; }

 private:
  friend std::vector<AvailabilityCurve> curves_from_sweep(std::span<const FailureScenario>,
                                                          std::size_t, std::size_t,
                                                          const PlaceScenario&);
  struct FromBreakpoints {};
  AvailabilityCurve(std::vector<std::pair<double, double>> breakpoints, FromBreakpoints)
      : breakpoints_(std::move(breakpoints)) {}

  std::vector<std::pair<double, double>> breakpoints_;  // bandwidth desc, mass asc
};

/// How the scenario sweep derives each scenario's placement.
enum class SweepMode {
  kFull,         ///< from-scratch placement of every demand per scenario
  kIncremental,  ///< prefix-checkpointed replay (bit-identical, default)
};

/// Per-link capacities with the scenario's failed SRLGs zeroed out — the
/// one shared construction used by the admission service's residual state
/// and the equivalence tests (O(links) copy + O(affected) zeroing).
[[nodiscard]] std::vector<double> scenario_capacities(const topology::SrlgIndex& index,
                                                      std::span<const double> base_capacity,
                                                      const FailureScenario& scenario);

/// Thread-confined scenario-capacity scratch for the full sweep: keeps one
/// copy of the base capacities and zeroes/restores only each scenario's
/// affected links — O(affected) per scenario instead of an O(links) rebuild.
/// The restore happens lazily on the next apply(), so the returned span
/// stays valid until then. One instance per worker thread; values are
/// identical to scenario_capacities(), so results stay bit-identical.
class ScenarioCapacityScratch {
 public:
  ScenarioCapacityScratch(const topology::SrlgIndex& index, std::span<const double> base_capacity);

  /// The capacity vector for `scenario` (valid until the next apply()).
  [[nodiscard]] std::span<const double> apply(const FailureScenario& scenario);

 private:
  const topology::SrlgIndex& index_;
  std::span<const double> base_;
  std::vector<double> capacity_;
  std::vector<LinkId> dirty_;  ///< links zeroed by the last apply()
};

/// The dense scenario sweep behind ApprovalEngine::verify: warms `router` for
/// `demands`, guards the path cache, fans the scenarios out over
/// `num_threads` threads (1 = serial, in the calling thread; sweeps of fewer
/// than kFanOutCutoffPlacements scenario x demand placements also stay
/// inline) and returns the placed Gbps per [scenario][demand]. It places
/// exactly as RiskSimulator::availability_curves does.
/// Results are bit-identical for every thread count and both sweep modes.
/// `scenario_timer` (optional) records a wall-clock span for one scenario in
/// `timer_stride`, keyed on the scenario index so the sampled set is
/// thread-count independent.
[[nodiscard]] std::vector<std::vector<double>> sweep_scenario_placements(
    topology::Router& router, std::span<const topology::Demand> demands,
    std::span<const double> base_capacity, const topology::SrlgIndex& index,
    std::span<const FailureScenario> scenarios, std::size_t num_threads, SweepMode mode,
    obs::Histogram* scenario_timer = nullptr, std::size_t timer_stride = 1);

/// Availability curves for `demand_count` demands placed under every one of
/// `scenarios` by `place`, without materializing the [scenario][demand]
/// matrix. Scenario 0 is placed first, on worker slot 0, as every demand's
/// reference; the other scenarios fan out over `num_threads` threads and
/// keep only the cells whose placement differs from the reference; a second
/// fan-out over demands turns each demand's deviations into its curve.
/// Curves are bit-identical to AvailabilityCurve(outcomes) over the same
/// outcomes in scenario order, for every thread count. Correctness does not
/// depend on which scenario comes first, only the saving does: it is large
/// when scenario 0 places what most scenarios place (the no-failure
/// scenario does). `place` may run on several threads at once, with
/// `worker` < fan_out_width(num_threads, scenarios.size(),
/// scenarios.size() * demand_count).
[[nodiscard]] std::vector<AvailabilityCurve> curves_from_sweep(
    std::span<const FailureScenario> scenarios, std::size_t demand_count,
    std::size_t num_threads, const PlaceScenario& place);

class RiskSimulator {
 public:
  /// `base_capacity_gbps` is the per-link capacity available to the batch
  /// (full capacity minus higher-priority reservations), indexed by LinkId.
  /// Copied once at construction; the span need not outlive the call.
  RiskSimulator(topology::Router& router, std::vector<FailureScenario> scenarios,
                std::span<const double> base_capacity_gbps);

  /// Places the batch under every scenario (links on failed SRLGs get zero
  /// capacity) and returns one availability curve per input pipe, streamed
  /// through curves_from_sweep. Placement order within the batch is the
  /// input order. Scenarios are swept in parallel over `num_threads` threads
  /// (1 = serial, in the calling thread); the result is bit-identical for
  /// every thread count and sweep mode.
  [[nodiscard]] std::vector<AvailabilityCurve> availability_curves(
      std::span<const topology::Demand> pipes,
      std::size_t num_threads = ThreadPool::default_thread_count(),
      SweepMode mode = SweepMode::kIncremental) const;

  [[nodiscard]] std::span<const FailureScenario> scenarios() const { return scenarios_; }
  [[nodiscard]] const topology::SrlgIndex& srlg_index() const { return index_; }

  /// Re-binds the simulator to the router's post-mutation topology state:
  /// takes the freshly enumerated scenario set, copies the new base
  /// capacities and builds a fresh SRLG index, as constructing
  /// RiskSimulator(router, scenarios, base) anew would. Invalidates spans
  /// into scenarios(). Returns whether the scenario set differs in value
  /// from the one it replaces.
  bool resync(std::vector<FailureScenario> scenarios, std::span<const double> base_capacity_gbps);

 private:
  topology::Router& router_;
  std::vector<FailureScenario> scenarios_;
  std::vector<double> base_capacity_;
  topology::SrlgIndex index_;
};

}  // namespace netent::risk
