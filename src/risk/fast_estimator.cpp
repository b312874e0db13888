#include "risk/fast_estimator.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"

namespace netent::risk {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FastEstimator::FastEstimator(const topology::Topology& topo,
                             std::span<const FailureScenario> scenarios)
    : scenarios_(scenarios) {
  link_srlg_.reserve(topo.link_count());
  for (const topology::Link& link : topo.links()) link_srlg_.push_back(link.srlg);
  headroom_.assign(topo.link_count(), kInf);
  srlg_scenarios_.resize(topo.srlg_count());
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    total_mass_ += scenarios_[s].probability;
    for (const SrlgId srlg : scenarios_[s].down) {
      std::vector<std::uint32_t>& downing = srlg_scenarios_[srlg.value()];
      if (downing.empty() || downing.back() != s) downing.push_back(static_cast<std::uint32_t>(s));
    }
  }
  // Invert the per-SRLG index into per-scenario dead-link lists. Links are
  // visited in ascending order, so every list comes out sorted.
  dead_begin_.assign(scenarios_.size() + 1, 0);
  for (const SrlgId srlg : link_srlg_) {
    for (const std::uint32_t s : srlg_scenarios_[srlg.value()]) ++dead_begin_[s + 1];
  }
  for (std::size_t s = 0; s < scenarios_.size(); ++s) dead_begin_[s + 1] += dead_begin_[s];
  dead_links_.resize(dead_begin_.back());
  std::vector<std::size_t> fill(dead_begin_.begin(), dead_begin_.end() - 1);
  for (std::size_t l = 0; l < link_srlg_.size(); ++l) {
    for (const std::uint32_t s : srlg_scenarios_[link_srlg_[l].value()]) {
      dead_links_[fill[s]++] = static_cast<std::uint32_t>(l);
    }
  }
}

bool FastEstimator::link_alive(LinkId link, const FailureScenario& scenario) const {
  // Down-sets are sorted (risk/failure.h) and tiny; binary search them.
  return !std::binary_search(scenario.down.begin(), scenario.down.end(),
                             link_srlg_[link.value()]);
}

double FastEstimator::link_headroom(LinkId link, const SparseResiduals& residuals) const {
  const std::size_t l = link.value();
  const auto alive = [&](std::size_t s) { return link_alive(link, scenarios_[s]); };
  // Scenario 0's residual is folded at the first alive scenario holding it,
  // in ascending order among the entries; every later copy is a tie the fold
  // keeps. That first one is scenario 0 unless it downs the link.
  double headroom = kInf;
  bool base_folded = false;
  std::size_t next = 0;  // the first scenario not yet passed
  const auto fold_base_before = [&](std::size_t end) {
    for (; !base_folded && next < end; ++next) {
      if (!alive(next)) continue;
      headroom = std::min(headroom, residuals.base[l]);
      base_folded = true;
    }
  };
  for (std::size_t g = 0; g < residuals.groups.size(); ++g) {
    const double* value = residuals.groups[g].values[l].data();
    for (std::uint64_t word = residuals.groups[g].differs[l]; word != 0; word &= word - 1) {
      const std::size_t s =
          g * SparseResiduals::kGroup + static_cast<std::size_t>(std::countr_zero(word));
      fold_base_before(s);
      next = s + 1;
      const double residual = *value++;
      if (alive(s)) headroom = std::min(headroom, residual);
    }
  }
  fold_base_before(scenarios_.size());
  return headroom;
}

void FastEstimator::rebuild(const SparseResiduals& residuals) {
  NETENT_EXPECTS(residuals.base.size() == headroom_.size() &&
                 residuals.groups.size() == SparseResiduals::group_count(scenarios_.size()));
  for (std::size_t l = 0; l < headroom_.size(); ++l) {
    headroom_[l] = link_headroom(LinkId(static_cast<std::uint32_t>(l)), residuals);
  }
}

void FastEstimator::refresh_links(std::span<const LinkId> links,
                                  const SparseResiduals& residuals) {
  NETENT_EXPECTS(residuals.base.size() == headroom_.size() &&
                 residuals.groups.size() == SparseResiduals::group_count(scenarios_.size()));
  for (const LinkId link : links) {
    NETENT_EXPECTS(link.value() < headroom_.size());
    headroom_[link.value()] = link_headroom(link, residuals);
  }
}

void FastEstimator::rebuild(std::span<const std::vector<double>> scenario_residuals) {
  NETENT_EXPECTS(scenario_residuals.size() == scenarios_.size());
  for (const std::vector<double>& residual : scenario_residuals) {
    NETENT_EXPECTS(residual.size() == headroom_.size());
  }
  // Scenario-major: each scenario's residual vector is read once, front to
  // back, and folded into every link it leaves alive. Each link still sees
  // std::min over its alive scenarios in ascending order, so the summary is
  // bit-identical to the per-link scan and to link_headroom().
  std::fill(headroom_.begin(), headroom_.end(), kInf);
  for (std::size_t s = 0; s < scenario_residuals.size(); ++s) {
    const double* residual = scenario_residuals[s].data();
    const auto fold = [&](std::size_t begin, std::size_t end) {
      for (std::size_t l = begin; l < end; ++l) headroom_[l] = std::min(headroom_[l], residual[l]);
    };
    std::size_t next = 0;
    for (std::size_t i = dead_begin_[s]; i < dead_begin_[s + 1]; ++i) {
      fold(next, dead_links_[i]);
      next = dead_links_[i] + std::size_t{1};
    }
    fold(next, headroom_.size());
  }
}

double FastEstimator::bound(double amount_gbps, topology::PathList paths,
                            std::span<const double> window_consumed) const {
  if (paths.empty() || paths[0].empty()) return 0.0;
  if (amount_gbps < kMinRateGbps) return 0.0;

  // cleared[p]: path p's summarized bottleneck (minus the window's
  // worst-case charges) carries the rate with slack against charge
  // rounding — in every scenario leaving p alive, the fill-time residual of
  // each link is at least headroom - consumed. An empty path can never
  // prove a placement. Scratch is thread-local so the admission fast tier
  // stays allocation-free in steady state.
  static thread_local std::vector<char> cleared;
  static thread_local std::vector<std::uint32_t> affected;
  cleared.assign(paths.size(), 0);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].empty()) continue;
    bool ok = true;
    for (const LinkId link : paths[p].links) {
      double room = headroom_[link.value()];
      if (!window_consumed.empty()) room -= window_consumed[link.value()];
      if (room < amount_gbps + kHeadroomSlackGbps) {
        ok = false;
        break;
      }
    }
    cleared[p] = ok ? 1 : 0;
  }

  // Scenario scan: under s, every candidate path in front of the first
  // fully-alive one has a dead link (residual 0), so water-filling skips it
  // placing nothing and the full rate reaches the first alive path. If that
  // path is cleared the demand is provably served in full under s. An empty
  // path is vacuously alive but never cleared, so it (soundly) blocks every
  // path behind it.
  //
  // A scenario that downs no SRLG of any candidate path leaves every path
  // alive, so path 0 decides it wholesale. Start from that assumption and
  // correct only the scenarios indexed under the paths' SRLGs — the scan
  // stays O(path links + affected scenarios) instead of O(all scenarios).
  double mass = cleared[0] ? total_mass_ : 0.0;
  affected.clear();
  for (const topology::PathView path : paths) {
    for (const LinkId link : path.links) {
      const std::vector<std::uint32_t>& hits = srlg_scenarios_[link_srlg_[link.value()].value()];
      affected.insert(affected.end(), hits.begin(), hits.end());
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  for (const std::uint32_t s : affected) {
    const FailureScenario& scenario = scenarios_[s];
    if (cleared[0]) mass -= scenario.probability;  // undo the assumption
    for (std::size_t p = 0; p < paths.size(); ++p) {
      bool alive = true;
      for (const LinkId link : paths[p].links) {
        if (!link_alive(link, scenario)) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;  // a dead link: the fill places nothing here
      if (cleared[p]) mass += scenario.probability;
      break;  // first alive path decides the scenario either way
    }
  }
  return mass;
}

void FastEstimator::charge(double amount_gbps, topology::PathList paths,
                           std::span<double> window_consumed) {
  // A link shared by several of the demand's candidate paths is still
  // charged once per path: under a scenario the demand never carries more
  // than its rate across any single link, but per-path charging stays on
  // the cheap side of that bound without a dedup pass, and over-charging
  // only ever pushes later demands toward the exact tier.
  for (const topology::PathView path : paths) {
    for (const LinkId link : path.links) {
      window_consumed[link.value()] += amount_gbps;
    }
  }
}

}  // namespace netent::risk
