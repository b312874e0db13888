// Path-based routing engine. Demands are placed greedily on k-shortest
// candidate paths with water-filling: fill the shortest path up to the
// residual capacity, spill the remainder to the next path. This is the
// routing model shared by the hose-coverage metric, the risk simulator's
// multi-pipe admissibility and the approval engine.
//
// Data layout: candidate path sets live in a CSR `PathStore`
// (path_store.h) — dense (src, dst) pair table, one flat LinkId array —
// and placement scratch lives in the caller's reused RouteResult, so the
// steady-state hot path does no tree lookups and no heap allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "common/units.h"
#include "topology/path_store.h"
#include "topology/paths.h"
#include "topology/topology.h"

namespace netent::topology {

/// A point-to-point bandwidth demand.
struct Demand {
  RegionId src;
  RegionId dst;
  Gbps amount;
};

/// Outcome of routing a demand set.
struct RouteResult {
  Gbps demand_total;            ///< sum of requested demand
  Gbps placed_total;            ///< how much was actually placed
  std::vector<double> link_load;  ///< Gbps load per LinkId
  std::vector<double> placed_per_demand;  ///< Gbps placed for each input demand
  bool fully_placed = false;    ///< placed_total == demand_total (within epsilon)
  /// Per-link capacity left after the placement: the call's scratch, so a
  /// reused result places without allocating.
  std::vector<double> residual;
};

/// Placement epsilon: remainders and bottlenecks at or below this many Gbps
/// are treated as zero by the water-fill.
inline constexpr double kPlacementEps = 1e-6;

/// THE placement arithmetic: water-fills `amount_gbps` over
/// `candidate_paths` in order, capping each path at its bottleneck residual
/// and spilling the remainder to the next path. `residual` (indexed by
/// LinkId) is updated in place; when `link_load` is non-empty the placed
/// traffic is also accumulated there. Returns the placed amount.
///
/// `candidate_paths` is any random-access range of path-like elements (a
/// `.links` range of LinkId): `std::vector<Path>`, `std::span<const Path>`,
/// or the CSR-backed `PathList`. The arithmetic is layout-independent — the
/// float-op sequence depends only on link ids and residuals, which is what
/// makes the CSR layout bit-identical to the legacy one.
///
/// When `op_log` is non-null, every `residual[link] -= amount` this call
/// performs is appended to it in execution order; replaying the log against
/// an equal residual vector reproduces the exact same bits (a link shared by
/// two chosen paths is subtracted twice, not once by the sum — the log
/// preserves that).
///
/// When `scanned_paths_out` is non-null it receives the number of leading
/// candidate paths the fill actually evaluated (read residuals of) before
/// terminating — the demand's outcome is a pure function of those paths'
/// link residuals, which is what lets the scenario replay skip demands whose
/// scanned links are untouched even when a failed link sits on an unreached
/// backup path. When `path_placed_out` is non-null it is resized to
/// `candidate_paths.size()` and receives the Gbps placed on each path (0 for
/// skipped or unreached paths), letting callers reconstruct the remaining
/// amount in front of every path.
///
/// Every routing codepath — Router::route_warmed and the incremental
/// scenario replay (replay.h) — must go through this one function so their
/// floating-point operation sequences, and therefore their results, stay
/// bit-identical.
template <class PathRange>
double water_fill_demand(double amount_gbps, const PathRange& candidate_paths,
                         std::span<double> residual, std::span<double> link_load,
                         std::vector<std::pair<LinkId, double>>* op_log = nullptr,
                         std::size_t* scanned_paths_out = nullptr,
                         std::vector<double>* path_placed_out = nullptr) {
  NETENT_EXPECTS(amount_gbps >= 0.0);
  const std::size_t path_count = candidate_paths.size();
  if (path_placed_out != nullptr) path_placed_out->assign(path_count, 0.0);
  double remaining = amount_gbps;
  std::size_t scanned = 0;
  for (std::size_t p = 0; p < path_count; ++p) {
    if (remaining <= kPlacementEps) break;
    ++scanned;
    decltype(auto) path = candidate_paths[p];
    // Bottleneck residual along this path.
    double bottleneck = remaining;
    for (const LinkId lid : path.links) {
      bottleneck = std::min(bottleneck, residual[lid.value()]);
    }
    if (bottleneck <= kPlacementEps) continue;
    if (path_placed_out != nullptr) (*path_placed_out)[p] = bottleneck;
    for (const LinkId lid : path.links) {
      residual[lid.value()] -= bottleneck;
      if (!link_load.empty()) link_load[lid.value()] += bottleneck;
      if (op_log != nullptr) op_log->emplace_back(lid, bottleneck);
    }
    remaining -= bottleneck;
  }
  if (scanned_paths_out != nullptr) *scanned_paths_out = scanned;
  return amount_gbps - remaining;
}

/// Caches k-shortest path sets per (src, dst) pair over a topology snapshot,
/// compiled into a CSR PathStore. The store is populated lazily by `paths()`
/// / the non-const `route()` overloads (single-threaded use). For concurrent
/// use, `warm()` the cache with every (src, dst) pair of the demand set up
/// front; `route_warmed()` is then const, reads only the immutable store,
/// and keeps all per-placement mutable state in the caller's RouteResult.
///
/// Topology lifecycle: the Router snapshots the topology's epoch at
/// construction; after the topology mutates, call `resync_topology()` (no
/// sweeps active, no PathList/PathView/full_capacities() span held across
/// the call) to catch up — the resulting store content is identical to a
/// freshly built Router's.
class Router {
 public:
  Router(const Topology& topo, std::size_t k_paths);

  /// RAII marker for an active read-only sweep (e.g. the parallel
  /// risk-scenario fan-out). While any guard is alive, lazy path-cache
  /// insertion is a contract violation: `paths()` / `route()` / `warm()` on
  /// an uncached pair throw instead of mutating the cache under concurrent
  /// readers. Cheap enough to be enforced in every build, not just debug.
  class SweepGuard {
   public:
    explicit SweepGuard(const Router& router) : router_(&router) {
      router_->active_sweeps_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~SweepGuard() {
      if (router_ != nullptr) router_->active_sweeps_.fetch_sub(1, std::memory_order_acq_rel);
    }
    SweepGuard(SweepGuard&& other) noexcept : router_(std::exchange(other.router_, nullptr)) {}
    SweepGuard(const SweepGuard&) = delete;
    SweepGuard& operator=(const SweepGuard&) = delete;
    SweepGuard& operator=(SweepGuard&&) = delete;

   private:
    const Router* router_;
  };

  /// Candidate paths for a pair on the intact topology (computed lazily).
  /// Precondition: no SweepGuard is active when the pair misses the cache
  /// (insertion would race the sweep's readers). The returned PathList stays
  /// valid across later insertions.
  [[nodiscard]] PathList paths(RegionId src, RegionId dst);

  /// Precomputes candidate paths for every (src, dst) pair in `demands`.
  /// After this, `route_warmed()` may be called concurrently for any demand
  /// sequence drawn from those pairs.
  void warm(std::span<const Demand> demands);

  /// Routes `demands` (in order) over candidate paths against per-link
  /// capacities `capacity_gbps` (indexed by LinkId). Partial placement is
  /// allowed; the result says how much fit.
  [[nodiscard]] RouteResult route(std::span<const Demand> demands,
                                  std::span<const double> capacity_gbps);

  /// Routes against the topology's full link capacities.
  [[nodiscard]] RouteResult route(std::span<const Demand> demands);

  /// As route(), but strictly read-only: every (src, dst) pair must already
  /// be cached (via warm() or earlier routing), otherwise a contract
  /// violation is raised. Safe to call from many threads at once; results
  /// are bit-identical to route() for the same inputs.
  [[nodiscard]] RouteResult route_warmed(std::span<const Demand> demands,
                                         std::span<const double> capacity_gbps) const;

  /// Allocation-free variant for hot loops: places into `out`, reusing its
  /// vectors' capacity (residual scratch included). After the first call at
  /// a given topology size the steady state performs zero heap allocations.
  /// Same bits as route_warmed().
  void route_warmed_into(std::span<const Demand> demands,
                         std::span<const double> capacity_gbps, RouteResult& out) const;

  [[nodiscard]] const Topology& topo() const { return topo_; }
  [[nodiscard]] std::size_t k_paths() const { return k_paths_; }

  /// Read-only cache lookup: the candidate paths for a pair, or an invalid
  /// PathList if the pair was never warmed. Never inserts, so it is safe
  /// during an active sweep (the incremental replay engine resolves its
  /// per-demand path lists through this once, up front). O(1): one dense-
  /// table load, no tree walk.
  [[nodiscard]] PathList cached_paths(RegionId src, RegionId dst) const {
    return store_.find(src, dst);
  }

  /// Per-link EFFECTIVE capacities of the intact (no failure scenario)
  /// topology, indexed by LinkId: retired/drained/struck links read 0. A
  /// view of the Router's own capacity array — valid until the next
  /// `resync_topology()` (which may grow the array and refreshes every
  /// entry), not just for this epoch's values. Re-take the span after every
  /// resync.
  [[nodiscard]] std::span<const double> full_capacities() const { return full_caps_; }

  /// Catches the Router up with the topology's mutation log: refreshes the
  /// effective-capacity array and, when the log tail holds an add or a
  /// retire, recompiles every compiled (src, dst) pair into a fresh store in
  /// slot order — capacity-only tails never re-run KSP, path costs are hop
  /// counts. Postcondition: per-pair store content and slots equal a fresh
  /// Router(topo, k_paths) warmed on the same pairs, bit-identical.
  ///
  /// Invalidates outstanding PathList/PathView handles and the
  /// full_capacities() span. Preconditions: no SweepGuard active, and
  /// region_count unchanged since construction.
  ///
  /// When `changed_pairs` is non-null it receives the (src, dst) pairs whose
  /// compiled path set actually changed (ascending slot order).
  void resync_topology(std::vector<std::pair<RegionId, RegionId>>* changed_pairs = nullptr);

  /// The topology epoch this Router's caches reflect.
  [[nodiscard]] std::uint64_t synced_epoch() const { return synced_epoch_; }

  /// The underlying CSR store (read-only; for diagnostics and tests).
  [[nodiscard]] const PathStore& path_store() const { return store_; }

 private:
  const Topology& topo_;
  std::size_t k_paths_;
  std::size_t region_count_;  ///< snapshot; regions are fixed once attached
  PathStore store_;
  std::vector<double> full_caps_;  ///< intact per-link effective capacity, by LinkId
  std::uint64_t synced_epoch_ = 0;
  /// Count of live SweepGuards; paths() refuses cache insertion while > 0.
  mutable std::atomic<int> active_sweeps_{0};
};

}  // namespace netent::topology
