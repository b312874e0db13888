#include "topology/replay.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace netent::topology {

namespace {
// The sparse walk is abandoned for the dense checkpoint path once at least
// this many demands were water-filled AND they form the majority of the
// examined suffix — at that density the per-demand class bookkeeping costs
// more than plainly re-filling everything. Data-dependent only, so the
// decision is identical at any thread count.
constexpr std::size_t kDenseFallbackMinReplayed = 32;
}  // namespace

ScenarioSweeper::ScenarioSweeper(const Router& router, std::span<const Demand> demands,
                                 std::span<const double> base_capacity_gbps, Config config)
    : demands_(demands.begin(), demands.end()),
      index_(router.topo()),
      first_affected_demand_(router.topo().srlg_count(), demands.size()),
      checkpoint_interval_(std::max<std::size_t>(1, config.checkpoint_interval)) {
  const std::size_t link_count = router.topo().link_count();
  NETENT_EXPECTS(base_capacity_gbps.size() == link_count);

  // Resolve every demand's candidate paths once: replays never pay even the
  // O(1) dense-table lookup route_warmed does per demand per scenario.
  candidate_paths_.reserve(demands_.size());
  for (const Demand& demand : demands_) {
    const PathList paths = router.cached_paths(demand.src, demand.dst);
    NETENT_EXPECTS(paths.valid());  // warm() must cover the pair
    candidate_paths_.push_back(paths);
  }

  // Baseline placement, snapshotting the residual state every K demands and
  // recording each demand's trace (deduped candidate links, the residuals
  // around its placement, the scanned-path link subset and the exact
  // subtraction ops) straight into the flat CSR store.
  std::vector<double> residual(base_capacity_gbps.begin(), base_capacity_gbps.end());
  const std::size_t n = demands_.size();
  baseline_placed_.reserve(n);
  traces_.link_off.reserve(n + 1);
  traces_.scan_off.reserve(n + 1);
  traces_.ops_off.reserve(n + 1);
  traces_.link_off.push_back(0);
  traces_.scan_off.push_back(0);
  traces_.ops_off.push_back(0);
  checkpoints_.reserve(n / checkpoint_interval_ + 1);
  std::vector<std::uint32_t> links;         // per-demand scratch
  std::vector<std::uint32_t> scan_links;    // per-demand scratch
  std::vector<std::pair<LinkId, double>> ops;
  std::vector<double> path_placed;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % checkpoint_interval_ == 0) {
      checkpoints_.push_back({i, residual});
    }
    links.clear();
    for (const PathView path : candidate_paths_[i]) {
      for (const LinkId lid : path.links) links.push_back(lid.value());
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    for (const std::uint32_t l : links) {
      traces_.link.push_back(l);
      traces_.residual_before.push_back(residual[l]);
    }

    ops.clear();
    std::size_t scanned_paths = 0;
    const double amount = demands_[i].amount.value();
    baseline_placed_.push_back(water_fill_demand(amount, candidate_paths_[i], residual, {},
                                                 &ops, &scanned_paths, &path_placed));
    for (const auto& [lid, amt] : ops) {
      traces_.ops_link.push_back(lid.value());
      traces_.ops_amount.push_back(amt);
    }
    for (const std::uint32_t l : links) traces_.residual_after.push_back(residual[l]);

    scan_links.clear();
    for (std::size_t p = 0; p < scanned_paths; ++p) {
      for (const LinkId lid : candidate_paths_[i][p].links) scan_links.push_back(lid.value());
    }
    std::sort(scan_links.begin(), scan_links.end());
    scan_links.erase(std::unique(scan_links.begin(), scan_links.end()), scan_links.end());
    for (const std::uint32_t l : scan_links) {
      traces_.scan_link.push_back(l);
      // residual_before is aligned with the (sorted) deduped link range.
      const auto begin = traces_.link.begin() + traces_.link_off[i];
      const auto it = std::lower_bound(begin, traces_.link.end(), l);
      traces_.scan_residual_before.push_back(
          traces_.residual_before[static_cast<std::size_t>(it - traces_.link.begin())]);
      // Bind threshold: the baseline remaining in front of the single
      // scanned path this link appears on, or the full amount when it sits
      // on several scanned paths. `remaining` is reconstructed with the
      // same left-to-right subtractions the waterfall performs, so the
      // threshold bits match what the fill compared against.
      std::size_t occurrences = 0;
      std::size_t first_path = 0;
      for (std::size_t p = 0; p < scanned_paths; ++p) {
        const auto path_links = candidate_paths_[i][p].links;
        if (std::find(path_links.begin(), path_links.end(), LinkId(l)) != path_links.end()) {
          if (occurrences == 0) first_path = p;
          ++occurrences;
        }
      }
      double required = amount;
      if (occurrences == 1) {
        for (std::size_t p = 0; p < first_path; ++p) required -= path_placed[p];
      }
      traces_.scan_required.push_back(required);
    }

    traces_.link_off.push_back(static_cast<std::uint32_t>(traces_.link.size()));
    traces_.scan_off.push_back(static_cast<std::uint32_t>(traces_.scan_link.size()));
    traces_.ops_off.push_back(static_cast<std::uint32_t>(traces_.ops_link.size()));
  }
  if (checkpoints_.empty()) checkpoints_.push_back({0, residual});

  // Link -> scanned-dependent demands inverted index (CSR, counting sort so
  // each dependent list is in placement order).
  dependents_off_.assign(link_count + 1, 0);
  for (const std::uint32_t l : traces_.scan_link) ++dependents_off_[l + 1];
  for (std::size_t l = 0; l < link_count; ++l) dependents_off_[l + 1] += dependents_off_[l];
  dependents_.resize(traces_.scan_link.size());
  std::vector<std::uint32_t> cursor(dependents_off_.begin(), dependents_off_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = traces_.scan_off[i]; k < traces_.scan_off[i + 1]; ++k) {
      dependents_[cursor[traces_.scan_link[k]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Per-SRLG first affected demand: the head of the inverted index lists
  // (which are in placement order) over the SRLG's links.
  for (std::size_t s = 0; s < first_affected_demand_.size(); ++s) {
    std::size_t& first = first_affected_demand_[s];
    for (const LinkId lid : index_.links_of(SrlgId(static_cast<std::uint32_t>(s)))) {
      const std::uint32_t l = lid.value();
      if (dependents_off_[l] != dependents_off_[l + 1]) {
        first = std::min(first, static_cast<std::size_t>(dependents_[dependents_off_[l]]));
      }
    }
  }
}

void ScenarioSweeper::replay(std::span<const SrlgId> down_srlgs, Workspace& workspace,
                             std::span<double> placed_out, ReplayStats* stats) const {
  const std::size_t n = demands_.size();
  NETENT_EXPECTS(placed_out.size() == n);

  // O(|down|): first demand whose scanned paths touch a failed link.
  std::size_t first = n;
  for (const SrlgId srlg : down_srlgs) {
    NETENT_EXPECTS(srlg.value() < first_affected_demand_.size());
    first = std::min(first, first_affected_demand_[srlg.value()]);
  }

  if (first == n) {  // no scanned path is affected: baseline holds exactly
    std::copy(baseline_placed_.begin(), baseline_placed_.end(), placed_out.begin());
    if (stats != nullptr) *stats = {n, 0, true};
    return;
  }

  const std::size_t link_count = dependents_off_.size() - 1;
  if (workspace.diverged_.size() != link_count) {
    workspace.diverged_.assign(link_count, 0);
    workspace.residual_.assign(link_count, 0.0);
  }
  const std::size_t words = (n + 63) / 64;
  workspace.affected_words_.reset(words);
  workspace.touched_.clear();

  const auto mark_dependents = [&](std::uint32_t l) {
    for (std::size_t k = dependents_off_[l]; k < dependents_off_[l + 1]; ++k) {
      workspace.affected_words_.set_bit(dependents_[k]);
    }
  };
  for (const SrlgId srlg : down_srlgs) {
    for (const LinkId lid : index_.links_of(srlg)) {
      const std::uint32_t l = lid.value();
      workspace.residual_[l] = 0.0;
      if (workspace.diverged_[l] == 0) {
        workspace.diverged_[l] = 1;
        workspace.touched_.push_back(lid);
        mark_dependents(l);
      }
    }
  }

  // Untouched and decision-identical demands keep the baseline outcome; copy
  // it wholesale up front so they cost nothing in the walk.
  std::copy(baseline_placed_.begin(), baseline_placed_.end(), placed_out.begin());
  std::size_t replayed = 0;
  for (std::size_t w = first >> 6; w < words; ++w) {
    std::uint64_t bits = workspace.affected_words_.read(w) &
                         (~std::uint64_t{0} << (w == (first >> 6) ? (first & 63) : 0));
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t i = (w << 6) | static_cast<std::size_t>(b);
      const double amount = demands_[i].amount.value();

      // Class 2 check over the scanned links (unreached backup paths cannot
      // influence the outcome): every diverged scanned link has residual >=
      // its bind threshold on BOTH runs, so it can never bind the
      // bottleneck min-chain and the placement is bit-identical.
      bool identical = true;
      bool touched = false;
      for (std::size_t k = traces_.scan_off[i]; k < traces_.scan_off[i + 1]; ++k) {
        const std::uint32_t l = traces_.scan_link[k];
        if (workspace.diverged_[l] == 0) continue;
        touched = true;
        const double required = traces_.scan_required[k];
        if (workspace.residual_[l] >= required &&
            traces_.scan_residual_before[k] >= required) {
          continue;
        }
        identical = false;
        break;
      }
      if (!touched) continue;  // marked earlier, but every diverged link healed
      if (identical) {
        // Apply the baseline subtraction ops to the materialized (diverged)
        // links only; non-diverged links track the baseline trace
        // implicitly. Equal subtrahends keep every link in its current
        // class, so the diverged set does not spread.
        for (std::size_t k = traces_.ops_off[i]; k < traces_.ops_off[i + 1]; ++k) {
          const std::uint32_t l = traces_.ops_link[k];
          if (workspace.diverged_[l] != 0) workspace.residual_[l] -= traces_.ops_amount[k];
        }
        continue;  // placed_out[i] already holds the baseline outcome
      }

      // Class 3: a diverged scanned link could bind. Seed the non-diverged
      // candidate links from the baseline before-trace (a rerouted demand
      // may now reach its backup paths), then re-run the one true fill.
      for (std::size_t k = traces_.link_off[i]; k < traces_.link_off[i + 1]; ++k) {
        const std::uint32_t l = traces_.link[k];
        if (workspace.diverged_[l] == 0) workspace.residual_[l] = traces_.residual_before[k];
      }
      placed_out[i] = water_fill_demand(amount, candidate_paths_[i], workspace.residual_, {});
      ++replayed;
      // Re-classify this demand's links: diverged iff the scenario residual
      // now differs from the baseline's post-placement residual. Newly
      // diverged links mark their dependent demands.
      bool marked_new = false;
      for (std::size_t k = traces_.link_off[i]; k < traces_.link_off[i + 1]; ++k) {
        const std::uint32_t l = traces_.link[k];
        const bool diverged = workspace.residual_[l] != traces_.residual_after[k];
        if (diverged && workspace.diverged_[l] == 0) {
          workspace.diverged_[l] = 1;
          workspace.touched_.push_back(LinkId(l));
          mark_dependents(l);
          marked_new = true;
        } else if (!diverged) {
          workspace.diverged_[l] = 0;  // healed; stays in touched_ for reset
        }
      }
      if (marked_new && b < 63) {
        // Pick up any same-word demands the marking just added after i.
        bits |= workspace.affected_words_.read(w) & (~std::uint64_t{0} << (b + 1));
      }

      if (replayed >= kDenseFallbackMinReplayed && replayed * 2 >= i - first + 1) {
        // Divergence exploded: finish densely from the nearest checkpoint.
        // The checkpoint precedes `first`, so failed links are provably
        // untouched in it: zeroing them reproduces the exact scenario state.
        const Checkpoint& checkpoint = checkpoints_[first / checkpoint_interval_];
        const std::size_t start = checkpoint.first_demand;
        workspace.residual_.assign(checkpoint.residual.begin(), checkpoint.residual.end());
        for (const SrlgId srlg : down_srlgs) {
          for (const LinkId lid : index_.links_of(srlg)) workspace.residual_[lid.value()] = 0.0;
        }
        for (std::size_t k = start; k < n; ++k) {
          placed_out[k] = water_fill_demand(demands_[k].amount.value(), candidate_paths_[k],
                                            workspace.residual_, {});
        }
        for (const LinkId lid : workspace.touched_) workspace.diverged_[lid.value()] = 0;
        workspace.touched_.clear();
        if (stats != nullptr) *stats = {start, n - start, false};
        return;
      }
    }
  }
  for (const LinkId lid : workspace.touched_) workspace.diverged_[lid.value()] = 0;
  workspace.touched_.clear();
  if (stats != nullptr) *stats = {n - replayed, replayed, false};
}

}  // namespace netent::topology
