// Two-tier risk verification, tier 1: an analytical availability lower
// bound that answers the common admission case without replaying a single
// failure scenario.
//
// The exact tier (risk::sweep_scenario_placements / the admission service's
// residual sweep) water-fills every demand under every enumerated scenario —
// O(scenarios x demands x paths) per assessment. The paper's SLO guarantee
// (§4.3) only needs a CONSERVATIVE answer at admission time: it is always
// sound to under-promise. The FastEstimator exploits that by precomputing,
// from the same per-(scenario) residual state the exact tier uses, a
// per-link HEADROOM summary:
//
//     headroom[L] = min over scenarios s with L alive under s
//                   of residual_s[L]
//
// plus a CLEARED predicate per candidate path P:
//
//     cleared(P) = min over links L of P of
//                  (headroom[L] - window_consumed[L]) >= r + slack
//
// For a demand of rate r the bound scans the enumerated scenarios: under
// scenario s, every candidate path in front of the first FULLY-ALIVE path
// (no link SRLG in s's down-set) contains a dead link, whose residual is 0
// under s — water-filling skips such a path placing nothing, so the fill
// reaches the first alive path with the full rate r still unplaced. If that
// path is cleared(), its fill-time bottleneck is at least
// headroom - window_consumed >= r + slack on every link, so the fill places
// exactly r there: the demand is served in full under s, and p(s) is added
// to the bound. Scenarios whose first alive path is uncleared (or that
// leave no candidate path alive) contribute nothing — never optimistic.
//
// This multi-path scan strictly dominates the first-path-only union bound
// it replaced (every scenario the old bound counted has the first path
// alive and cleared), so demands whose shortest path crosses a
// high-unavailability fiber can still clear a tight SLO through a reliable
// backup path. The bound is NEVER above the exact per-pipe availability
// (the property suite in tests/test_fast_estimator.cpp pins this across
// >= 1k randomized draws), so a bound clearing the SLO (plus a
// configurable margin) admits immediately and bit-identically to the exact
// tier; anything borderline falls back to the exact sweep.
// `window_consumed` accounts for earlier demands of the same
// jointly-evaluated window: each fast-admitted demand is charged at its
// full rate against every link of every candidate path it could spill
// onto, which upper-bounds its consumption under any scenario.
//
// Summaries are maintained alongside the residual state they summarize:
// rebuild() after a from-scratch residual rebuild (release / resize
// windows), refresh_links() for the links a pure-admit commit touched
// (residuals only ever decrease there, so a per-link re-min is exact).
#pragma once

#include <span>
#include <vector>

#include "risk/failure.h"
#include "topology/path_store.h"
#include "topology/topology.h"

namespace netent::risk {

/// Knob for the two-tier fast path (`ApprovalConfig::fastpath`). The
/// compatibility default is exact-only: nothing changes unless enabled.
struct FastPathConfig {
  bool enabled = false;  ///< try the analytical bound before the exact sweep
  /// Extra availability the bound must clear on top of the SLO target.
  /// Conservativeness never needs it (the bound is already a lower bound);
  /// it only trades fast-path hits for distance from the SLO boundary.
  double slo_margin = 0.0;
  /// Admission service only: record fast-admitted windows for the deferred
  /// exact audit pass (risk.fastpath.audited / .audit_violations counters).
  bool audit = true;
};

/// Conservative per-pipe availability bounds over one family of
/// per-scenario residual capacities (one admission-service realization, or
/// the approval engine's pristine base capacities). The `scenarios` span
/// must outlive the estimator and match the residual families passed to
/// rebuild()/refresh_links() index-for-index.
class FastEstimator {
 public:
  FastEstimator(const topology::Topology& topo, std::span<const FailureScenario> scenarios);

  /// Rebuilds every per-link headroom from `scenario_residuals` (indexed
  /// [scenario][link], aligned with the constructor's scenario span).
  void rebuild(std::span<const std::vector<double>> scenario_residuals);

  /// Headroom of the placement-free state: every alive link keeps its base
  /// capacity, so the summary IS the base capacity vector (the approval
  /// engine's batch assessments start from exactly this state).
  void rebuild_pristine(std::span<const double> base_capacity);

  /// Re-summarizes only `links` (duplicates allowed) from
  /// `scenario_residuals`. Exact — each link's min is recomputed from
  /// scratch — and sufficient after a commit, because committed placements
  /// only ever DECREASE residuals, and only on links of the placed demands'
  /// candidate paths.
  void refresh_links(std::span<const LinkId> links,
                     std::span<const std::vector<double>> scenario_residuals);

  /// The conservative availability lower bound for placing `amount_gbps` on
  /// `paths`: the summed probability of enumerated scenarios under which the
  /// first fully-alive candidate path provably carries the demand in full
  /// (see the file comment). `window_consumed` (empty, or indexed by LinkId)
  /// holds the worst-case Gbps already promised to earlier demands of the
  /// same joint window. Returns 0 when no scenario's placement can be
  /// proven — the caller falls back to the exact sweep. Scratch is
  /// thread-local, so steady-state calls perform no heap allocations.
  [[nodiscard]] double bound(double amount_gbps, topology::PathList paths,
                             std::span<const double> window_consumed) const;

  /// Charges a fast-admitted demand's worst-case consumption to
  /// `window_consumed`: its full rate on every link of every candidate path
  /// (under scenarios failing the first path the fill spills onto backups).
  static void charge(double amount_gbps, topology::PathList paths,
                     std::span<double> window_consumed);

  [[nodiscard]] std::size_t link_count() const { return headroom_.size(); }
  /// The maintained summary (tests compare it against a fresh rebuild()).
  [[nodiscard]] std::span<const double> headroom() const { return headroom_; }
  /// Total enumerated scenario probability mass (the bound's ceiling).
  [[nodiscard]] double total_mass() const { return total_mass_; }

  /// Minimum rate the fast tier will reason about. Below this the routing
  /// epsilon (water_fill_demand skips remainders <= 1e-6 Gbps) could place
  /// strictly less than the request, so tiny demands always go exact.
  static constexpr double kMinRateGbps = 1e-5;
  /// Safety slack required on top of the demand rate when comparing against
  /// summarized headroom: the window charge accumulates sums the exact fill
  /// subtracts sequentially, so insist on clearance by more than any
  /// accumulated rounding. Biasing toward fallback is always sound.
  static constexpr double kHeadroomSlackGbps = 1e-6;

 private:
  [[nodiscard]] bool link_alive(LinkId link, const FailureScenario& scenario) const;
  /// min of `scenario_residuals[s][link]` over the scenarios leaving `link`
  /// alive (+inf when none does).
  [[nodiscard]] double alive_min(LinkId link,
                                 std::span<const std::vector<double>> scenario_residuals) const;

  std::span<const FailureScenario> scenarios_;
  std::vector<SrlgId> link_srlg_;  ///< SRLG of each link, by LinkId
  /// Scenario indices downing each SRLG, by SrlgId, strictly ascending.
  /// bound()'s scenario scan only visits scenarios that hit a
  /// candidate-path SRLG — every other scenario leaves all paths alive and
  /// is decided by path 0 wholesale — keeping the fast tier O(path links +
  /// affected scenarios) per demand.
  std::vector<std::vector<std::uint32_t>> srlg_scenarios_;
  std::vector<double> headroom_;   ///< min alive-scenario residual, by LinkId
  double total_mass_ = 0.0;
};

}  // namespace netent::risk
