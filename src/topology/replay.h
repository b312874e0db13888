// Incremental failure-scenario replay. The risk sweep places the same
// demand batch under thousands of failure scenarios, but a scenario zeroes
// only a handful of links that most cached candidate paths never traverse —
// so most of each from-scratch placement re-derives bits the baseline
// (no-failure) placement already produced.
//
// ScenarioSweeper exploits that structure while staying BIT-identical to the
// full placement:
//  * A demand's outcome is a pure function of the links on its SCANNED
//    paths — the leading candidate paths the baseline waterfall actually
//    evaluated before the demand was fully placed. A failed link on an
//    unreached backup path cannot change anything, so all of the structures
//    below index scanned links, not all candidate links.
//  * Per SRLG, the first demand (in placement order) whose scanned paths
//    traverse a link on that SRLG is precomputed once; a scenario's replay
//    start point is then the min over its |down| SRLGs — O(|down|), not
//    O(links) or O(demands).
//  * Divergence from the baseline is tracked per link, and a link -> demands
//    inverted index over scanned links turns "which demands could care"
//    into O(1) mask reads. Each suffix demand falls into one of three
//    classes:
//      1. UNTOUCHED — no scanned link is diverged. Places bit-identically
//         to the baseline (it reads only bit-equal residuals, so it stops
//         at the same point and never reaches a diverged backup path) and
//         keeps every link it touches bit-identical, so the replay does
//         nothing at all (the baseline outcome was bulk-copied up front).
//      2. TOUCHED BUT DECISION-IDENTICAL — some scanned links are diverged,
//         but on both runs each such link's residual is >= the remaining
//         amount the baseline had in front of the (single) scanned path the
//         link appears on (conservatively the full demand amount for a
//         link shared by several scanned paths). The waterfall's bottleneck
//         min-chain starts at `remaining`, so such a link can never bind
//         and every placement decision is bit-identical; the demand only
//         needs its recorded baseline subtraction ops applied to the
//         diverged links' materialized residuals. Crucially this class does
//         NOT spread divergence — it is what stops the "everything
//         transitively touches a diverged link" avalanche, and the
//         per-path threshold keeps large multi-path demands skippable when
//         only their small spillover tail touches a diverged link.
//      3. AFFECTED — a diverged scanned link could bind (residual below the
//         demand amount on either run). The demand is re-placed through
//         the same water_fill_demand arithmetic: non-diverged candidate
//         links (all of them — a rerouted demand may now reach its backup
//         paths) are first seeded from the recorded baseline before-trace,
//         then each candidate link is re-classified by comparing the
//         scenario residual to the recorded baseline after-trace (links can
//         heal, e.g. both drained to zero); newly diverged links mark their
//         scanned-adjacent demands via the inverted index.
//  * The baseline placement also records PlacementState residual snapshots
//    every `checkpoint_interval` demands. When a scenario's divergence
//    explodes (most examined demands land in class 3 — e.g. a saturated
//    batch where any failure re-routes everything), the sparse walk is
//    abandoned deterministically and the scenario is re-placed densely from
//    the nearest checkpoint at or before the first affected demand: restore
//    the snapshot, zero the failed links (their residual at that point
//    provably equals the base capacity), water-fill the whole suffix. The
//    trigger depends only on the demand/scenario data, never on thread
//    schedule.
//  * A scenario touching no cached candidate path short-circuits: the
//    baseline outcome is reused wholesale.
//
// Exactness argument (induction over placement order): the invariant is
// that a non-diverged link's scenario residual bit-equals the baseline
// residual trace at the current step (it is never materialized), while a
// diverged link's scenario residual is materialized in the workspace, and
// every demand with a diverged scanned link is marked affected.
// Class-1 demands read only non-diverged residuals on their scanned paths,
// make bit-identical decisions (stopping at the same path, so unreached
// paths stay unread) and subtract equal amounts from equal values — every
// link they touch stays in its class. Class-2 demands make bit-identical
// decisions because their diverged scanned links never bind: each is, on
// both runs, >= the remaining amount in front of the scanned path it
// appears on, and `remaining` caps every bottleneck, so every min-chain
// resolves identically (induction over paths — identical placements on
// earlier paths keep each path's `remaining` bit-equal to the recorded
// baseline value); applying the logged baseline ops to the diverged links
// keeps those materialized values exact (equal subtrahends), and their
// non-diverged links stay bit-equal for the same reason as class 1.
// Class-3 demands run the one true water_fill_demand over exact scenario
// residuals (seeded from the before-trace for non-diverged links), so
// their outcome is exact by construction, and the compare-against-after-
// trace pass over all candidate links restores the mask invariant. For the dense fallback: no demand before the first affected
// index touches a failed link, so the checkpoint residual on failed links
// is the untouched base capacity, and zeroing them reproduces the exact
// scenario state; the suffix then re-runs the identical arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/routing.h"
#include "topology/srlg_index.h"

namespace netent::topology {

/// Word-packed bitmap with epoch-stamped O(1) clear: a word whose stamp is
/// stale reads as zero, so reset() never touches the payload. Used for the
/// incremental replay's per-demand affected mask (one bit per demand,
/// cleared once per scenario).
class EpochWords {
 public:
  /// Logically zeroes all `words` words. O(1) except when the bitmap grows.
  void reset(std::size_t words) {
    if (words_.size() < words) {
      words_.resize(words, 0);
      stamp_.resize(words, 0);
    }
    ++epoch_;
  }

  [[nodiscard]] std::uint64_t read(std::size_t w) const {
    return stamp_[w] == epoch_ ? words_[w] : 0;
  }

  void set_bit(std::size_t index) {
    const std::size_t w = index >> 6;
    if (stamp_[w] != epoch_) {
      stamp_[w] = epoch_;
      words_[w] = 0;
    }
    words_[w] |= std::uint64_t{1} << (index & 63);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// Immutable-after-construction replay engine for one (demand batch, base
/// capacity) pair. `replay()` is const and safe to call from many threads at
/// once, each with its own Workspace (thread-confined mutable state).
class ScenarioSweeper {
 public:
  struct Config {
    /// Baseline residual snapshots are taken every this many demands.
    /// Smaller = replays start closer to the first affected demand at the
    /// cost of O(demands / K) stored capacity vectors.
    std::size_t checkpoint_interval = 4;
  };

  /// Per-replay accounting, consumed by the risk layer's obs counters.
  struct ReplayStats {
    /// Demands that kept the baseline outcome: the unaffected prefix,
    /// untouched suffix demands, and touched-but-decision-identical demands.
    std::size_t demands_skipped = 0;
    std::size_t demands_replayed = 0;  ///< demands actually water-filled
    bool short_circuited = false;      ///< baseline reused wholesale
  };

  /// Thread-confined scratch state; reused across replay() calls.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class ScenarioSweeper;
    /// Materialized scenario residuals. Only entries whose link is (or was)
    /// diverged hold meaningful values; non-diverged links implicitly carry
    /// the baseline trace and are seeded on demand.
    std::vector<double> residual_;
    std::vector<char> diverged_;   ///< per link: residual differs from baseline trace
    std::vector<LinkId> touched_;  ///< links marked during this replay (for reset)
    /// Per demand, one bit: some scanned link is/was diverged. Word-packed
    /// so the replay walk skips 64 untouched demands per load; epoch-stamped
    /// so clearing it per scenario is O(1), not O(demands / 64).
    EpochWords affected_words_;
  };

  /// Runs the baseline placement and precomputes the SRLG index, per-demand
  /// candidate-path lists and checkpoints. `router` must already be
  /// warmed for every (src, dst) pair in `demands` and must outlive the
  /// sweeper with its path cache unmodified (take a Router::SweepGuard for
  /// the sweep's duration).
  ScenarioSweeper(const Router& router, std::span<const Demand> demands,
                  std::span<const double> base_capacity_gbps, Config config);
  ScenarioSweeper(const Router& router, std::span<const Demand> demands,
                  std::span<const double> base_capacity_gbps)
      : ScenarioSweeper(router, demands, base_capacity_gbps, Config()) {}

  /// Placed Gbps per demand under the scenario failing `down_srlgs`,
  /// bit-identical to
  /// `router.route_warmed(demands, base-with-failed-links-zeroed)
  ///        .placed_per_demand`.
  /// `placed_out.size()` must equal `demand_count()`.
  void replay(std::span<const SrlgId> down_srlgs, Workspace& workspace,
              std::span<double> placed_out, ReplayStats* stats = nullptr) const;

  /// The no-failure outcome (what replay({}) yields).
  [[nodiscard]] std::span<const double> baseline_placed() const { return baseline_placed_; }

  [[nodiscard]] std::size_t demand_count() const { return demands_.size(); }
  [[nodiscard]] std::size_t checkpoint_count() const { return checkpoints_.size(); }
  [[nodiscard]] const SrlgIndex& srlg_index() const { return index_; }

 private:
  struct Checkpoint {
    std::size_t first_demand = 0;   ///< replay resumes at this demand index
    std::vector<double> residual;   ///< state after demands [0, first_demand)
  };

  /// Baseline traces for all demands in CSR (offset + flat array) layout:
  /// the replay walk visits marked demands in ascending order, so flat
  /// arrays keep every access sequential and prefetchable instead of
  /// chasing per-demand heap vectors. Ranges for demand i are
  /// [<x>_off[i], <x>_off[i + 1]).
  struct TraceStore {
    /// Deduped candidate-path links with the baseline residuals
    /// immediately BEFORE and AFTER the demand placed.
    std::vector<std::uint32_t> link_off;
    std::vector<std::uint32_t> link;
    std::vector<double> residual_before;  ///< aligned with `link`
    std::vector<double> residual_after;   ///< aligned with `link`
    /// Deduped links on the baseline's scanned paths — the demand's
    /// outcome depends on exactly these residuals — with their
    /// before-residuals duplicated for a single-array class check.
    std::vector<std::uint32_t> scan_off;
    std::vector<std::uint32_t> scan_link;
    std::vector<double> scan_residual_before;  ///< aligned with `scan_link`
    /// Aligned with `scan_link`: the bind threshold for the class-2 check.
    /// For a link appearing on exactly one scanned path this is the
    /// baseline's remaining amount in front of that path (the waterfall's
    /// `remaining` caps every bottleneck, so a link whose residual is >=
    /// this value on both runs cannot bind); for a link shared by several
    /// scanned paths it is the conservative full demand amount.
    std::vector<double> scan_required;
    /// The exact subtraction ops the baseline water-fill applied, in
    /// execution order (replaying them is bit-identical to re-running the
    /// fill).
    std::vector<std::uint32_t> ops_off;
    std::vector<std::uint32_t> ops_link;
    std::vector<double> ops_amount;  ///< aligned with `ops_link`
  };

  std::vector<Demand> demands_;
  std::vector<PathList> candidate_paths_;  ///< per demand, into the Router's CSR store
  TraceStore traces_;
  /// Per link, CSR: indices of demands whose baseline SCANNED paths
  /// traverse it, in placement order — the inverted index that makes
  /// marking newly diverged links' dependents O(adjacent demands) instead
  /// of O(demands x links).
  std::vector<std::uint32_t> dependents_off_;
  std::vector<std::uint32_t> dependents_;
  SrlgIndex index_;
  /// Per SRLG: the first demand index whose baseline scanned paths traverse
  /// a link on that SRLG; demand_count() when none does.
  std::vector<std::size_t> first_affected_demand_;
  std::vector<double> baseline_placed_;
  std::vector<Checkpoint> checkpoints_;  ///< checkpoints_[j].first_demand == j * K
  std::size_t checkpoint_interval_;
};

}  // namespace netent::topology
