#include "core/lifecycle.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"

namespace netent::core {

namespace {
constexpr std::size_t kQuarterDays = 90;
}

LifecycleSimulator::LifecycleSimulator(const topology::Topology& topo, LifecycleConfig config)
    : topo_(topo), config_(std::move(config)) {
  NETENT_EXPECTS(config_.quarters >= 1);
  NETENT_EXPECTS(config_.history_days >= 30);
  NETENT_EXPECTS(config_.fleet.region_count == topo.region_count());
}

std::vector<QuarterRecord> LifecycleSimulator::run(Rng& rng) const {
  // One long synthesis covering the warm-up history plus every quarter.
  const std::size_t total_days = config_.history_days + config_.quarters * kQuarterDays;
  const auto fleet = traffic::generate_fleet(config_.fleet, rng);
  const auto full_histories =
      synthesize_histories(fleet, total_days, config_.synthesis_step_seconds,
                           config_.manager.forecaster.aggregate, config_.min_pipe_rate_gbps, rng);
  NETENT_EXPECTS(!full_histories.empty());

  EntitlementManager manager(topo_, config_.manager);
  manager.set_name_lookup([&fleet](NpgId npg) {
    return npg.value() < fleet.size() ? fleet[npg.value()].name : std::string();
  });

  std::vector<QuarterRecord> records;
  for (std::size_t quarter = 0; quarter < config_.quarters; ++quarter) {
    const std::size_t window_begin = quarter * kQuarterDays;
    const std::size_t window_end = window_begin + config_.history_days;  // forecast origin
    const std::size_t realized_end = window_end + kQuarterDays;

    // Slice the trailing history window per pipe.
    std::vector<PipeHistory> window;
    window.reserve(full_histories.size());
    for (const PipeHistory& history : full_histories) {
      PipeHistory slice;
      slice.npg = history.npg;
      slice.qos = history.qos;
      slice.src = history.src;
      slice.dst = history.dst;
      slice.daily.assign(history.daily.begin() + static_cast<long>(window_begin),
                         history.daily.begin() + static_cast<long>(window_end));
      window.push_back(std::move(slice));
    }

    const CycleResult cycle = manager.run_cycle(window, rng);

    QuarterRecord record;
    record.quarter = quarter;
    record.pipes = cycle.pipe_requests.size();
    record.contracts = cycle.contracts.size();
    record.egress_approval_pct =
        approval_percentage(cycle.approvals, hose::Direction::egress) * 100.0;

    // Quota accuracy: granted quota vs realized p95 of the quarter's daily
    // usage, matched per pipe.
    std::vector<double> smapes;
    for (const forecast::SliRecord& sli : cycle.sli) {
      for (const PipeHistory& history : full_histories) {
        if (history.npg != sli.npg || history.qos != sli.qos || history.src != sli.src ||
            history.dst != sli.dst) {
          continue;
        }
        std::vector<double> realized(history.daily.begin() + static_cast<long>(window_end),
                                     history.daily.begin() + static_cast<long>(realized_end));
        const double realized_p95 = percentile_of(std::move(realized), 95.0);
        const double quota = sli.bandwidth.value();
        const double denom = (realized_p95 + quota) / 2.0;
        if (denom > 0.0) smapes.push_back(std::abs(realized_p95 - quota) / denom);
        break;
      }
    }
    record.quota_smape_median = smapes.empty() ? 0.0 : percentile_of(std::move(smapes), 50.0);

    // Provisioning headroom: total entitled egress vs the realized fleet
    // egress peak over the quarter.
    double entitled_egress = 0.0;
    for (const auto& contract : cycle.contracts.contracts()) {
      for (const auto& entitlement : contract.entitlements) {
        if (entitlement.direction == hose::Direction::egress) {
          entitled_egress += entitlement.entitled_rate.value();
        }
      }
    }
    double realized_peak = 0.0;
    for (std::size_t day = window_end; day < realized_end; ++day) {
      double day_total = 0.0;
      for (const PipeHistory& history : full_histories) day_total += history.daily[day];
      realized_peak = std::max(realized_peak, day_total);
    }
    record.provision_ratio = realized_peak > 0.0 ? entitled_egress / realized_peak : 0.0;

    // SLO attainment of the granted pipe-level quotas. Scale pipe requests
    // by their hose approval fraction so the replay sees granted volumes.
    std::vector<approval::PipeApprovalResult> granted;
    granted.reserve(cycle.pipe_requests.size());
    for (const hose::PipeRequest& pipe : cycle.pipe_requests) {
      double fraction = 1.0;
      for (const auto& approval : cycle.approvals) {
        if (approval.request.npg == pipe.npg && approval.request.qos == pipe.qos &&
            approval.request.direction == hose::Direction::egress &&
            approval.request.region == pipe.src) {
          fraction = approval.request.rate > Gbps(0)
                         ? approval.approved / approval.request.rate
                         : 0.0;
          break;
        }
      }
      approval::PipeApprovalResult result;
      result.request = pipe;
      result.approved = pipe.rate * fraction;
      granted.push_back(result);
    }
    const auto attainments =
        manager.engine().verify(granted, config_.manager.approval.sweep_threads());
    double volume = 0.0;
    double weighted = 0.0;
    for (const auto& attainment : attainments) {
      record.slo_worst_achieved =
          std::min(record.slo_worst_achieved, attainment.achieved_availability);
      volume += attainment.approved.value();
      weighted += attainment.approved.value() * attainment.achieved_availability;
    }
    record.slo_volume_weighted = volume > 0.0 ? weighted / volume : 1.0;

    records.push_back(record);
  }
  return records;
}

}  // namespace netent::core
