#include "risk/fast_estimator.h"

#include <algorithm>
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
}

bool FastEstimator::link_alive(LinkId link, const FailureScenario& scenario) const {
  // Down-sets are sorted (risk/failure.h) and tiny; binary search them.
  return !std::binary_search(scenario.down.begin(), scenario.down.end(),
                             link_srlg_[link.value()]);
}

double FastEstimator::alive_min(LinkId link,
                                std::span<const std::vector<double>> scenario_residuals) const {
  // The scenarios downing the link's SRLG, ascending: skipped in one merge
  // pass, so the scan reads no down-set.
  const std::vector<std::uint32_t>& dead = srlg_scenarios_[link_srlg_[link.value()].value()];
  auto next_dead = dead.begin();
  double headroom = kInf;
  for (std::size_t s = 0; s < scenario_residuals.size(); ++s) {
    if (next_dead != dead.end() && *next_dead == s) {
      ++next_dead;
      continue;
    }
    headroom = std::min(headroom, scenario_residuals[s][link.value()]);
  }
  return headroom;
}

void FastEstimator::rebuild(std::span<const std::vector<double>> scenario_residuals) {
  NETENT_EXPECTS(scenario_residuals.size() == scenarios_.size());
  for (const std::vector<double>& residual : scenario_residuals) {
    NETENT_EXPECTS(residual.size() == headroom_.size());
  }
  for (std::size_t l = 0; l < headroom_.size(); ++l) {
    headroom_[l] = alive_min(LinkId(static_cast<std::uint32_t>(l)), scenario_residuals);
  }
}

void FastEstimator::rebuild_pristine(std::span<const double> base_capacity) {
  // scenario_capacities() only zeroes DEAD links, so for every scenario in
  // which a link is alive its residual equals the base capacity — the
  // alive-scenario min is the base capacity itself. (Links alive in no
  // scenario keep +inf, matching rebuild(); a path through one is dead in
  // every scenario, so the bound's scenario scan never counts it.)
  NETENT_EXPECTS(base_capacity.size() == headroom_.size());
  for (std::size_t l = 0; l < headroom_.size(); ++l) {
    const bool alive_somewhere =
        srlg_scenarios_[link_srlg_[l].value()].size() < scenarios_.size();
    headroom_[l] = alive_somewhere ? base_capacity[l] : kInf;
  }
}

void FastEstimator::refresh_links(std::span<const LinkId> links,
                                  std::span<const std::vector<double>> scenario_residuals) {
  NETENT_EXPECTS(scenario_residuals.size() == scenarios_.size());
  for (const LinkId link : links) {
    NETENT_EXPECTS(link.value() < headroom_.size());
    headroom_[link.value()] = alive_min(link, scenario_residuals);
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
