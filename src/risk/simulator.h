// The Risk Simulation System (RSS, §4.3): generates per-pipe bandwidth
// availability curves by placing a batch of pipe requests on the network
// under every enumerated failure scenario. The approval engine reads the
// curve at the contract's SLO target to decide how much of a request can be
// guaranteed.
//
// Scenarios are independent placements, so the sweep fans out over the
// shared thread pool (common/thread_pool.h fan_out; small sweeps stay
// inline); per-scenario outcomes are merged back in scenario order, which
// makes the curves bit-identical to the serial sweep for every thread count. By default each scenario is replayed
// INCREMENTALLY (topology::ScenarioSweeper): the SRLG-indexed engine skips
// the unaffected placement prefix via baseline checkpoints and
// short-circuits scenarios that touch no cached path — still bit-identical
// to the full from-scratch placement (SweepMode::kFull, kept for
// benchmarking and equivalence tests).
#pragma once

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

/// Availability as a function of delivered bandwidth for one pipe:
/// A(b) = P(admissible bandwidth >= b) over failure scenarios. Probability
/// mass not covered by the enumeration counts as unavailable (conservative).
class AvailabilityCurve {
 public:
  /// `outcomes` pairs (admissible Gbps under scenario, scenario probability).
  explicit AvailabilityCurve(std::vector<std::pair<double, double>> outcomes);

  /// P(admissible >= bandwidth). O(log outcomes) via the prefix-mass table.
  [[nodiscard]] double availability_at(Gbps bandwidth) const;

  /// Largest bandwidth whose availability meets `target` (the §4.3 "flow
  /// volume associated with the desired SLO target"). Returns 0 Gbps when
  /// even zero-bandwidth availability (total enumerated mass) misses target.
  /// O(log outcomes).
  [[nodiscard]] Gbps bandwidth_at(double target_availability) const;

  /// The (bandwidth, probability) outcomes, sorted by bandwidth descending.
  /// Exposed so tests can assert bit-identity between serial and parallel
  /// sweeps.
  [[nodiscard]] std::span<const std::pair<double, double>> outcomes() const {
    return outcomes_;
  }

  /// Total enumerated probability mass (<= 1).
  [[nodiscard]] double total_mass() const { return total_mass_; }

 private:
  std::vector<std::pair<double, double>> outcomes_;  // sorted by bandwidth desc
  /// prefix_mass_[i] = sum of outcomes_[0..i] probabilities, accumulated
  /// left-to-right (so binary-searched lookups return the exact doubles the
  /// old linear scans produced).
  std::vector<double> prefix_mass_;
  double total_mass_ = 0.0;
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

/// The shared scenario-sweep driver behind RiskSimulator::availability_curves
/// and ApprovalEngine::verify: warms `router` for `demands`, guards the path
/// cache, fans the scenarios out over `num_threads` threads (1 = serial, in
/// the calling thread; sweeps of fewer than kFanOutCutoffPlacements
/// scenario x demand placements also stay inline) and returns the placed
/// Gbps per [scenario][demand].
/// Results are bit-identical for every thread count and both sweep modes.
/// `scenario_timer` (optional) records a wall-clock span for one scenario in
/// `timer_stride`, keyed on the scenario index so the sampled set is
/// thread-count independent.
[[nodiscard]] std::vector<std::vector<double>> sweep_scenario_placements(
    topology::Router& router, std::span<const topology::Demand> demands,
    std::span<const double> base_capacity, const topology::SrlgIndex& index,
    std::span<const FailureScenario> scenarios, std::size_t num_threads, SweepMode mode,
    obs::Histogram* scenario_timer = nullptr, std::size_t timer_stride = 1);

/// Availability curves from a sweep's placed Gbps per [scenario][demand]
/// (the shape sweep_scenario_placements returns): each demand's (placed,
/// probability) outcomes are merged in scenario order, so the curves are
/// bit-identical however the sweep was split across threads.
[[nodiscard]] std::vector<AvailabilityCurve> curves_from_placements(
    std::span<const std::vector<double>> placed, std::span<const FailureScenario> scenarios,
    std::size_t demand_count);

class RiskSimulator {
 public:
  /// `base_capacity_gbps` is the per-link capacity available to the batch
  /// (full capacity minus higher-priority reservations), indexed by LinkId.
  /// Copied once at construction; the span need not outlive the call.
  RiskSimulator(topology::Router& router, std::vector<FailureScenario> scenarios,
                std::span<const double> base_capacity_gbps);

  /// Places the batch under every scenario (links on failed SRLGs get zero
  /// capacity) and returns one availability curve per input pipe. Placement
  /// order within the batch is the input order. Scenarios are swept in
  /// parallel over `num_threads` threads (1 = serial, in the calling
  /// thread); the result is bit-identical for every thread count and sweep
  /// mode.
  [[nodiscard]] std::vector<AvailabilityCurve> availability_curves(
      std::span<const topology::Demand> pipes,
      std::size_t num_threads = ThreadPool::default_thread_count(),
      SweepMode mode = SweepMode::kIncremental) const;

  [[nodiscard]] std::span<const FailureScenario> scenarios() const { return scenarios_; }
  [[nodiscard]] const topology::SrlgIndex& srlg_index() const { return index_; }

  /// Re-binds the simulator to the router's post-mutation topology state:
  /// takes the freshly enumerated scenario set, copies the new base
  /// capacities and catches the SRLG index up with any added links.
  /// Equivalent to constructing RiskSimulator(router, scenarios, base) anew,
  /// except that a scenario set value-identical to the current one leaves
  /// the scenarios() vector physically in place, so spans into it (held by
  /// fast estimators) stay valid. Returns whether the scenario set changed.
  bool resync(std::vector<FailureScenario> scenarios, std::span<const double> base_capacity_gbps);

 private:
  topology::Router& router_;
  std::vector<FailureScenario> scenarios_;
  std::vector<double> base_capacity_;
  topology::SrlgIndex index_;
};

}  // namespace netent::risk
