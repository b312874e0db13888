// Two-tier risk verification, tier 1: an analytical availability lower
// bound that answers the common admission case without replaying a single
// failure scenario.
//
// The exact tier (risk::curves_from_sweep over the admission service's
// residuals) water-fills every demand under every enumerated scenario —
// O(scenarios x demands x paths) per assessment. The paper's SLO guarantee
// (§4.3) only needs a CONSERVATIVE answer at admission time: it is always
// sound to under-promise. The FastEstimator exploits that by reading, from
// the same per-(scenario) residual state the exact tier uses, each
// candidate link's HEADROOM:
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
// >= 1k randomized draws), so a bound clearing the SLO admits immediately
// and bit-identically to the exact tier; anything borderline falls back to
// the exact sweep.
// `window_consumed` accounts for earlier demands of the same
// jointly-evaluated window: each fast-admitted demand is charged at its
// full rate against every link of every candidate path it could spill
// onto, which upper-bounds its consumption under any scenario.
//
// The estimator keeps no summary of the residuals: the bound folds each
// link it scans from the realization's live state (risk/sparse_residuals.h)
// in place, so nothing of the estimator's changes when the residuals do;
// only new links or a new scenario set need a new estimator. The fold reads
// scenario 0's residual and the entries that differ from it, in
// O(groups + entries) per link, and takes the link's alive scenarios in
// ascending order. It is bit for bit the dense ascending fold over every
// alive scenario: it skips only copies of scenario 0's residual, and a later
// copy of a value already folded cannot displace the running minimum, ±0
// ties included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "risk/failure.h"
#include "risk/sparse_residuals.h"
#include "topology/path_store.h"
#include "topology/topology.h"

namespace netent::risk {

/// Knob for the admission service's two-tier fast path
/// (`ApprovalConfig::fastpath`). The compatibility default is exact-only:
/// nothing changes unless enabled.
struct FastPathConfig {
  bool enabled = false;  ///< try the analytical bound before the exact sweep
  /// Record fast-admitted windows for the deferred exact audit pass
  /// (risk.fastpath.audited / .audit_violations counters).
  bool audit = true;
};

/// Conservative per-pipe availability bounds over per-scenario residual
/// capacities. The estimator holds only what the scenario set implies (each
/// link's SRLG, the scenarios downing each SRLG and their total mass), so one
/// estimator serves every realization. The `scenarios` span must outlive it
/// and index the scenarios of every residual state passed in.
class FastEstimator {
 public:
  FastEstimator(const topology::Topology& topo, std::span<const FailureScenario> scenarios);

  /// The min of `residuals`' cells on `link` over the scenarios leaving it
  /// alive (+inf when none does), folded in ascending scenario order in
  /// O(groups + entries on the link). `residuals`' scenarios align with the
  /// constructor's span.
  [[nodiscard]] double headroom(LinkId link, const SparseResiduals& residuals) const;

  /// The conservative availability lower bound for placing `amount_gbps` on
  /// `paths` against `residuals`: the summed probability of enumerated
  /// scenarios under which the first fully-alive candidate path provably
  /// carries the demand in full (see the file comment). `window_consumed`
  /// (empty, or indexed by LinkId) holds the worst-case Gbps already
  /// promised to earlier demands of the same joint window. Returns 0 when no
  /// scenario's placement can be proven — the caller falls back to the exact
  /// sweep. Scratch is thread-local, so steady-state calls perform no heap
  /// allocations.
  [[nodiscard]] double bound(double amount_gbps, topology::PathList paths,
                             const SparseResiduals& residuals,
                             std::span<const double> window_consumed) const;

  /// Charges a fast-admitted demand's worst-case consumption to
  /// `window_consumed`: its full rate on every link of every candidate path
  /// (under scenarios failing the first path the fill spills onto backups).
  static void charge(double amount_gbps, topology::PathList paths,
                     std::span<double> window_consumed);

  /// Minimum rate the fast tier will reason about. Below this the routing
  /// epsilon (water_fill_demand skips remainders <= 1e-6 Gbps) could place
  /// strictly less than the request, so tiny demands always go exact.
  static constexpr double kMinRateGbps = 1e-5;
  /// Safety slack required on top of the demand rate when comparing against
  /// headroom: the window charge accumulates sums the exact fill subtracts
  /// sequentially, so insist on clearance by more than any accumulated
  /// rounding. Biasing toward fallback is always sound.
  static constexpr double kHeadroomSlackGbps = 1e-6;

 private:
  [[nodiscard]] bool link_alive(LinkId link, const FailureScenario& scenario) const;

  std::span<const FailureScenario> scenarios_;
  std::vector<SrlgId> link_srlg_;  ///< SRLG of each link, by LinkId
  /// Scenario indices downing each SRLG, by SrlgId, strictly ascending.
  /// bound()'s scenario scan only visits scenarios that hit a
  /// candidate-path SRLG — every other scenario leaves all paths alive and
  /// is decided by path 0 wholesale — keeping the fast tier O(path links +
  /// affected scenarios) per demand.
  std::vector<std::vector<std::uint32_t>> srlg_scenarios_;
  double total_mass_ = 0.0;  ///< total enumerated scenario mass (the bound's ceiling)
};

}  // namespace netent::risk
