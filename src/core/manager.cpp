#include "core/manager.h"

#include <algorithm>
#include <optional>
#include <map>

#include "common/check.h"
#include "hose/segmented.h"

namespace netent::core {

namespace {

/// Synthetic NPG id representing the aggregated low-touch service (§4.3).
constexpr NpgId kLowTouchAggregate{0xFFFFFFFFu};

}  // namespace

EntitlementManager::EntitlementManager(const topology::Topology& topo, ManagerConfig config)
    : topo_(topo),
      config_(std::move(config)),
      name_lookup_([](NpgId) { return std::string(); }),
      router_(topo_, config_.router_paths),
      engine_(router_, config_.approval) {
  NETENT_EXPECTS(config_.period.end_seconds > config_.period.start_seconds);
  NETENT_EXPECTS(config_.segments >= 2);
  engine_.set_low_touch([](NpgId npg) { return npg == kLowTouchAggregate; });
}

NpgId EntitlementManager::approval_npg(NpgId npg) const {
  const bool high_touch = std::find(config_.high_touch_npgs.begin(),
                                    config_.high_touch_npgs.end(),
                                    npg.value()) != config_.high_touch_npgs.end();
  return high_touch ? npg : kLowTouchAggregate;
}

CycleResult EntitlementManager::run_cycle(std::span<const PipeHistory> histories,
                                          Rng& rng) const {
  NETENT_EXPECTS(!histories.empty());
  CycleResult result;

  // ---- Step 1: demand forecast (organic SLI per pipe). -----------------
  const forecast::DemandForecaster forecaster(config_.forecaster);
  for (const PipeHistory& history : histories) {
    const Gbps quota = forecaster.forecast_quota(history.daily, history.holidays);
    if (quota <= Gbps(0)) continue;
    result.sli.push_back({history.npg, history.qos, history.src, history.dst, quota});
    result.pipe_requests.push_back({history.npg, history.qos, history.src, history.dst, quota});
  }
  NETENT_EXPECTS(!result.pipe_requests.empty());

  // ---- Step 2: hose representation (+ low-touch aggregation). ----------
  std::vector<hose::PipeRequest> approval_pipes = result.pipe_requests;
  for (hose::PipeRequest& pipe : approval_pipes) pipe.npg = approval_npg(pipe.npg);
  result.hose_requests = hose::aggregate_to_hoses(result.pipe_requests, topo_.region_count());
  std::vector<hose::HoseRequest> approval_hoses =
      hose::aggregate_to_hoses(approval_pipes, topo_.region_count());
  // §8 preprocessing: the forecasts of each hose are independent, so the
  // fleet totals can drift apart; inflate the shortage direction before
  // approval. (Pipes from the same histories are balanced by construction,
  // but external/edited hose sets generally are not.)
  if (config_.balance_hoses) {
    result.balance = hose::balance_hoses(approval_hoses, topo_.region_count());
  }

  // Segmented hose: per (approval NPG, qos, src region), build the observed
  // per-destination share series from the histories and split it.
  if (config_.use_segmented_hose) {
    // Key -> per-destination summed daily series.
    std::map<std::tuple<std::uint32_t, QosClass, std::uint32_t>,
             std::vector<std::vector<double>>>
        flows;  // [t][dst]
    std::size_t days = 0;
    for (const PipeHistory& history : histories) days = std::max(days, history.daily.size());
    for (const PipeHistory& history : histories) {
      const NpgId npg = approval_npg(history.npg);
      auto& grid = flows[{npg.value(), history.qos, history.src.value()}];
      if (grid.empty()) grid.assign(days, std::vector<double>(topo_.region_count(), 0.0));
      for (std::size_t t = 0; t < history.daily.size(); ++t) {
        grid[t][history.dst.value()] += history.daily[t];
      }
    }
    for (auto& [key, grid] : flows) {
      const auto& [npg, qos, src] = key;
      // Egress hose rate of this (npg, qos, src).
      double hose_rate = 0.0;
      for (const hose::HoseRequest& hr : approval_hoses) {
        if (hr.npg.value() == npg && hr.qos == qos && hr.region.value() == src &&
            hr.direction == hose::Direction::egress) {
          hose_rate = hr.rate.value();
        }
      }
      if (hose_rate <= 0.0) continue;
      const hose::ShareSeries series(std::move(grid));
      const hose::Segmentation segmentation =
          config_.segments == 2 ? hose::two_segment_split(series)
                                : hose::n_segment_split(series, config_.segments);
      if (segmentation.segments.size() < 2 ||
          segmentation.capacity_fraction_total() > config_.max_segment_capacity_fraction) {
        continue;  // segmentation not productive for this hose
      }
      approval::ApprovalEngine::GroupSegments group{NpgId(npg), qos, {}};
      for (const hose::Segment& segment : segmentation.segments) {
        // The source region itself carries no flow of its own egress hose;
        // keep it out of the member sets.
        std::vector<std::uint32_t> members;
        for (const std::uint32_t m : segment.members) {
          if (m != src) members.push_back(m);
        }
        if (members.empty()) continue;
        group.segments.push_back(
            hose::SegmentConstraint{src, std::move(members), segment.alpha_plus * hose_rate});
      }
      if (group.segments.size() < 2) continue;
      result.segments.push_back(std::move(group));
    }
  }

  // ---- Step 3: approval. ------------------------------------------------
  const auto aggregated_approvals = engine_.hose_approval(approval_hoses, result.segments, rng);

  // Apportion aggregate approvals back to the original hoses pro-rata.
  result.approvals.reserve(result.hose_requests.size());
  for (const hose::HoseRequest& request : result.hose_requests) {
    const NpgId lookup_npg = approval_npg(request.npg);
    double fraction = 0.0;
    for (std::size_t i = 0; i < aggregated_approvals.size(); ++i) {
      const auto& agg = aggregated_approvals[i];
      if (agg.request.npg == lookup_npg && agg.request.qos == request.qos &&
          agg.request.region == request.region && agg.request.direction == request.direction) {
        fraction = agg.request.rate > Gbps(0) ? agg.approved / agg.request.rate : 0.0;
        break;
      }
    }
    result.approvals.push_back({request, request.rate * fraction});
  }

  // ---- Step 4: contracts into the database. ------------------------------
  std::map<std::uint32_t, EntitlementContract> contracts;
  for (const approval::HoseApprovalResult& approval : result.approvals) {
    auto& contract = contracts[approval.request.npg.value()];
    if (contract.entitlements.empty()) {
      contract.npg = approval.request.npg;
      contract.npg_name = name_lookup_(approval.request.npg);
      contract.slo_availability = config_.approval.slo_availability;
    }
    contract.entitlements.push_back(Entitlement{approval.request.npg, approval.request.qos,
                                                approval.request.region,
                                                approval.request.direction, approval.approved,
                                                config_.period});
  }
  for (auto& [npg, contract] : contracts) result.contracts.add(std::move(contract));
  return result;
}

namespace {

std::vector<PipeHistory> synthesize_impl(std::span<const traffic::ServiceProfile> fleet,
                                         std::size_t days, double step_seconds,
                                         std::optional<traffic::DailyAggregate> aggregate,
                                         double min_rate_gbps, Rng& rng) {
  NETENT_EXPECTS(days >= 14);
  NETENT_EXPECTS(step_seconds > 0.0);
  std::vector<PipeHistory> histories;
  const double duration = static_cast<double>(days) * 86400.0;

  for (const traffic::ServiceProfile& svc : fleet) {
    const std::size_t n = svc.src_weights.size();
    for (std::uint32_t src = 0; src < n; ++src) {
      if (svc.src_weights[src] <= 0.0) continue;
      const auto per_dst = traffic::per_destination_series(svc, RegionId(src), duration,
                                                           step_seconds, 0.05, rng);
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (dst == src || per_dst[dst].empty()) continue;
        const double mean_rate = per_dst[dst].total() / static_cast<double>(per_dst[dst].size());
        if (mean_rate < min_rate_gbps) continue;
        const std::vector<double> daily =
            per_dst[dst].daily(aggregate.value_or(svc.preferred_aggregate));
        for (const traffic::QosShare& share : svc.qos_mix) {
          PipeHistory history;
          history.npg = svc.id;
          history.qos = share.qos;
          history.src = RegionId(src);
          history.dst = RegionId(dst);
          history.daily.reserve(daily.size());
          for (const double v : daily) history.daily.push_back(v * share.fraction);
          history.holidays.assign(svc.pattern.holiday_days.begin(),
                                  svc.pattern.holiday_days.end());
          histories.push_back(std::move(history));
        }
      }
    }
  }
  return histories;
}

}  // namespace

std::vector<PipeHistory> synthesize_histories(std::span<const traffic::ServiceProfile> fleet,
                                              std::size_t days, double step_seconds,
                                              traffic::DailyAggregate aggregate,
                                              double min_rate_gbps, Rng& rng) {
  return synthesize_impl(fleet, days, step_seconds, aggregate, min_rate_gbps, rng);
}

std::vector<PipeHistory> synthesize_histories(std::span<const traffic::ServiceProfile> fleet,
                                              std::size_t days, double step_seconds,
                                              double min_rate_gbps, Rng& rng) {
  return synthesize_impl(fleet, days, step_seconds, std::nullopt, min_rate_gbps, rng);
}

}  // namespace netent::core
