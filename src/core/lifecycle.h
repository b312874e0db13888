// Multi-quarter operation of the entitlement program. The paper's system ran
// in production for over two years (§1), renewing contracts quarterly
// (§4.1's 3-month SLI window). The lifecycle simulator replays that
// operation: every quarter it feeds the trailing history window into the
// EntitlementManager, grants contracts, then scores the quarter against the
// traffic that actually materialized — forecast accuracy, approval level,
// provisioning efficiency, and SLO attainment of the granted pipes.
#pragma once

#include <vector>

#include "core/manager.h"

namespace netent::core {

struct LifecycleConfig {
  std::size_t quarters = 8;          ///< two years of quarterly cycles
  std::size_t history_days = 180;    ///< trailing window fed to the forecaster
  double synthesis_step_seconds = 3.0 * 3600.0;
  double min_pipe_rate_gbps = 1.0;   ///< drop negligible pipes
  traffic::FleetConfig fleet;
  ManagerConfig manager;
};

/// Scorecard of one operated quarter.
struct QuarterRecord {
  std::size_t quarter = 0;
  std::size_t pipes = 0;
  std::size_t contracts = 0;
  /// Median over pipes of sMAPE(quota, realized p95 daily usage): how well
  /// the granted quota tracked what the service actually needed.
  double quota_smape_median = 0.0;
  /// Total egress approved / total egress requested.
  double egress_approval_pct = 0.0;
  /// Total entitled egress / realized fleet egress peak (provisioning
  /// headroom; 1.0 == exactly sized).
  double provision_ratio = 0.0;
  /// Achieved availability of the granted volumes, replayed against the
  /// failure-scenario distribution. The hose contract guarantees the hose
  /// aggregate over the representative realizations; the quarter's REALIZED
  /// traffic matrix is one more point of the hose space, so per-pipe
  /// attainment is limited by realization coverage (more realizations =>
  /// tighter): volume_weighted is the headline, worst is the coverage gap.
  double slo_volume_weighted = 1.0;
  double slo_worst_achieved = 1.0;
};

class LifecycleSimulator {
 public:
  LifecycleSimulator(const topology::Topology& topo, LifecycleConfig config);

  /// Synthesizes the fleet's full multi-quarter traffic once, then operates
  /// the entitlement program quarter by quarter.
  [[nodiscard]] std::vector<QuarterRecord> run(Rng& rng) const;

 private:
  const topology::Topology& topo_;
  LifecycleConfig config_;
};

}  // namespace netent::core
