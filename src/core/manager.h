// EntitlementManager: the end-to-end §3.2 workflow behind one API.
//
//   observed pipe histories
//     -> (1) service demand forecast        (forecast::DemandForecaster)
//     -> (2) hose contract representation   (hose::aggregate_to_hoses,
//            optionally segmented            hose::two_segment_split)
//     -> (3) contract approval              (approval::ApprovalEngine,
//            risk-aware, QoS priorities, high/low-touch)
//     -> (4) contracts in the database      (core::ContractDb), ready for
//            run-time enforcement            (enforce::HostAgent via
//            ContractDb::query_adapter)
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "approval/approval.h"
#include "common/rng.h"
#include "core/contract_db.h"
#include "forecast/sli.h"
#include "hose/balance.h"
#include "topology/routing.h"
#include "traffic/fleet.h"

namespace netent::core {

/// Observed daily history of one pipe (one NPG, QoS, src->dst), the §4.1
/// input. `daily` holds one aggregate per day (oldest first); `holidays`
/// lists holiday day indices, which may extend past the history into the
/// forecast horizon.
struct PipeHistory {
  NpgId npg;
  QosClass qos = QosClass::c4_high;
  RegionId src;
  RegionId dst;
  std::vector<double> daily;
  std::vector<int> holidays;
};

struct ManagerConfig {
  forecast::ForecasterConfig forecaster;
  approval::ApprovalConfig approval;
  /// Apply the segmented-hose algorithm to egress hoses before approval.
  bool use_segmented_hose = true;
  /// Balance fleet-wide ingress/egress hose totals before approval by
  /// inflating the shortage direction with a dummy service (§8).
  bool balance_hoses = true;
  std::size_t segments = 2;
  /// Skip segmentations that would over-provision badly.
  double max_segment_capacity_fraction = 1.3;
  /// NPGs treated as high-touch (§4.3); every other NPG is folded into one
  /// aggregate low-touch service for approval, then apportioned back.
  std::vector<std::uint32_t> high_touch_npgs;

  Period period{0.0, 90.0 * 86400.0};  ///< enforcement period of new contracts
  std::size_t router_paths = 4;
};

struct CycleResult {
  std::vector<forecast::SliRecord> sli;                  ///< step 1 output
  std::vector<hose::PipeRequest> pipe_requests;          ///< forecast as pipes
  std::vector<hose::HoseRequest> hose_requests;          ///< step 2 output
  std::vector<hose::BalanceReport> balance;              ///< step 2 balancing (§8)
  std::vector<approval::ApprovalEngine::GroupSegments> segments;  ///< step 2 segmentation
  std::vector<approval::HoseApprovalResult> approvals;   ///< step 3 output
  ContractDb contracts;                                  ///< step 4 output
};

class EntitlementManager {
 public:
  /// `npg_name` resolves ids to display names for contracts (may return "").
  using NameLookup = std::function<std::string(NpgId)>;

  /// Builds the manager's one Router and ApprovalEngine, kept for every
  /// cycle; the engine places the aggregate low-touch service first within
  /// each QoS class.
  EntitlementManager(const topology::Topology& topo, ManagerConfig config);
  EntitlementManager(const EntitlementManager&) = delete;
  EntitlementManager& operator=(const EntitlementManager&) = delete;

  void set_name_lookup(NameLookup lookup) { name_lookup_ = std::move(lookup); }

  /// Runs one full entitlement cycle over the observed histories. Warms the
  /// shared router's path cache (as ApprovalEngine::pipe_approval does), so
  /// it is not safe to call concurrently on one manager.
  [[nodiscard]] CycleResult run_cycle(std::span<const PipeHistory> histories, Rng& rng) const;

  [[nodiscard]] const ManagerConfig& config() const { return config_; }

  /// The approval engine every cycle runs on: the manager's risk model, for
  /// verifying or negotiating its grants.
  [[nodiscard]] const approval::ApprovalEngine& engine() const { return engine_; }

 private:
  /// The NPG a pipe or hose is approved under: itself if high-touch, the
  /// aggregate low-touch service otherwise.
  [[nodiscard]] NpgId approval_npg(NpgId npg) const;

  const topology::Topology& topo_;
  ManagerConfig config_;
  NameLookup name_lookup_;
  topology::Router router_;
  approval::ApprovalEngine engine_;
};

/// Synthesizes per-pipe daily histories from fleet profiles (substitute for
/// production telemetry): per-destination series by the gravity model with
/// share drift, split across the profile's QoS mix, reduced to daily
/// aggregates. Pipes below `min_rate_gbps` mean rate are dropped.
[[nodiscard]] std::vector<PipeHistory> synthesize_histories(
    std::span<const traffic::ServiceProfile> fleet, std::size_t days, double step_seconds,
    traffic::DailyAggregate aggregate, double min_rate_gbps, Rng& rng);

/// As above, but each service is reduced with its own preferred daily
/// aggregate (§4.1: max-avg-6h for storage, p99 for ads, ...).
[[nodiscard]] std::vector<PipeHistory> synthesize_histories(
    std::span<const traffic::ServiceProfile> fleet, std::size_t days, double step_seconds,
    double min_rate_gbps, Rng& rng);

}  // namespace netent::core
