// Contract approval (§4.3, Algorithm 2): HOSE_APPROVAL converts hose
// requests into representative pipe realizations, PIPE_APPROVAL assesses each
// realization against failure risk (via the Risk Simulation System) with QoS
// classes processed in priority order, and per-hose approvals are aggregated
// as min-over-realizations of the summed pipe approvals. verify() replays the
// engine's own placement order to measure SLO attainment (§3.2).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/exec_config.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "common/units.h"
#include "hose/requests.h"
#include "hose/space.h"
#include "risk/fast_estimator.h"
#include "risk/simulator.h"
#include "topology/routing.h"

namespace netent::approval {

/// The approval plane's rate epsilon (Gbps): rates within this of zero are
/// "nothing", and a shortfall within this of zero is "fully approved". One
/// named constant shared by the approval engine, the negotiation layer
/// (CounterProposal::fully_approved) and the admission service, so the three
/// surfaces agree on what counts as an approval.
inline constexpr double kRateEpsGbps = 1e-6;

struct ApprovalConfig {
  double slo_availability = 0.9998;  ///< contract SLO target
  std::size_t realizations = 16;     ///< representative TMs per hose set
  risk::ScenarioConfig scenarios;
  /// Execution resources for the risk-scenario sweep. Approvals are
  /// bit-identical for every thread count; this only changes wall-clock
  /// time. Unset `exec.threads` means the hardware concurrency.
  common::ExecConfig exec;
  /// Effective sweep thread count (`exec.threads`, defaulting to the
  /// hardware concurrency).
  [[nodiscard]] std::size_t sweep_threads() const { return exec.resolve(); }
  /// Paper's strict mode: "Only when 100% of the flow meets SLO, the batch
  /// of flows is approved. If any flow fails, the batch is rejected." A
  /// batch is the pipes of one (NPG, QoS class) group. When false, each pipe
  /// is approved at the largest rate meeting the SLO (partial approvals,
  /// §4.3's under-approval discussion).
  bool strict_batch = false;
  /// Two-tier risk verification (risk/fast_estimator.h), read by the
  /// admission service only (service/admission.h), whose curve provider
  /// tries the conservative analytical bound before the exact residual
  /// sweep. The engine's own approvals always sweep exactly; the rates they
  /// approve are the same, the bound never being optimistic. Default:
  /// exact-only.
  risk::FastPathConfig fastpath;
};

struct PipeApprovalResult {
  hose::PipeRequest request;
  Gbps approved;
  /// Availability achievable at the full requested rate (diagnostics).
  double availability_at_request = 0.0;
};

struct HoseApprovalResult {
  hose::HoseRequest request;
  Gbps approved;
};

/// SLO attainment of one approved pipe (§3.2: "uptime requires all traffic
/// in that class of service to be admitted in the network").
struct PipeAttainment {
  hose::PipeRequest request;
  Gbps approved;
  /// Probability mass of scenarios fully admitting the approved rate.
  double achieved_availability = 0.0;
};

/// Predicate marking low-touch NPGs; low-touch demand is satisfied first
/// within each QoS class (§4.3). Defaults to "nothing is low-touch".
using LowTouchPredicate = std::function<bool(NpgId)>;

class ApprovalEngine {
 public:
  ApprovalEngine(topology::Router& router, ApprovalConfig config);

  void set_low_touch(LowTouchPredicate predicate) { low_touch_ = std::move(predicate); }

  /// Algorithm 2, PIPE_APPROVAL. Pipes are ordered premium-class-first
  /// (low-touch demand first within a class) and risk is assessed jointly in
  /// that order: per failure scenario, placement is strict-priority, which
  /// both enforces the class priority of §4.3 and keeps lower classes'
  /// availability curves honest. Result order matches the input order.
  [[nodiscard]] std::vector<PipeApprovalResult> pipe_approval(
      std::span<const hose::PipeRequest> pipes) const;

  /// The joint placement order pipe_approval assesses risk in: QoS classes
  /// premium-first, low-touch demand first within a class, then input order.
  /// Exposed so alternative risk backends (the admission service's residual-
  /// capacity assessor) place pipes in the exact same sequence.
  [[nodiscard]] std::vector<std::size_t> placement_order(
      std::span<const hose::PipeRequest> pipes) const;

  /// SLO verification: replays the simulator's scenarios (through its sweep
  /// driver and SRLG index) against the pipes approved above zero, placed at
  /// their approved rates in placement_order, and returns their attainments
  /// in that order. The granting invariant (pinned in tests): achieved
  /// availability >= the SLO target. The replay fans out over `num_threads`
  /// threads (1 = serial); attainments are bit-identical for every thread
  /// count and sweep mode.
  [[nodiscard]] std::vector<PipeAttainment> verify(
      std::span<const PipeApprovalResult> approvals,
      std::size_t num_threads = ThreadPool::default_thread_count(),
      risk::SweepMode mode = risk::SweepMode::kIncremental) const;

  /// Risk backend extension point: maps placement-ordered demands to one
  /// availability curve per demand (same order). pipe_approval uses the
  /// engine's own RiskSimulator; the admission service substitutes a
  /// residual-capacity sweep, or its fast tier's bounds. The provider must
  /// not consume engine RNG state so the surrounding approval stays
  /// bit-identical across backends. A provider may return a curve below the
  /// exact one only when that curve approves every demand in full: the
  /// approvals are then the exact ones, and only `availability_at_request`
  /// reads the lower curve.
  using CurveProvider =
      std::function<std::vector<risk::AvailabilityCurve>(std::span<const topology::Demand>)>;

  /// PIPE_APPROVAL with a caller-supplied risk backend. Ordering, SLO
  /// lookup, strict-batch handling and verdict metrics are identical to
  /// pipe_approval; only ASSESS_RISK is delegated.
  [[nodiscard]] std::vector<PipeApprovalResult> pipe_approval_with(
      std::span<const hose::PipeRequest> pipes, const CurveProvider& curves_for) const;

  /// Segment constraints (from the segmented-hose algorithm) to apply to one
  /// (NPG, QoS) group's realizations: tighter realizations mean fewer wild
  /// corner TMs and therefore higher approvals for the same SLO.
  struct GroupSegments {
    NpgId npg;
    QosClass qos;
    std::vector<hose::SegmentConstraint> segments;
  };

  /// Algorithm 2, HOSE_APPROVAL. Hoses of each (NPG, QoS) group span a
  /// HoseSpace; `realizations` representative TMs are drawn per group (the
  /// GEN_DEMAND step), each realization's pipes are approved jointly, and
  /// per-hose approvals aggregate as min over realizations of the summed
  /// pipe approvals. Result order matches the input order. Implemented as
  /// draw_realizations -> pipe_approval per realization in ascending order
  /// -> aggregate_realizations; callers with their own risk backend (the
  /// admission service) run the same three steps with pipe_approval_with.
  [[nodiscard]] std::vector<HoseApprovalResult> hose_approval(
      std::span<const hose::HoseRequest> hoses, Rng& rng) const;

  /// As above, with segmented-hose constraints applied per group.
  [[nodiscard]] std::vector<HoseApprovalResult> hose_approval(
      std::span<const hose::HoseRequest> hoses, std::span<const GroupSegments> segments,
      Rng& rng) const;

  /// One drawn traffic realization per index: the pipes of realization k,
  /// in group iteration order (the input order hose_approval assesses).
  /// An entry may be empty (a degenerate hose set draws no pipes).
  using RealizationPipes = std::vector<std::vector<hose::PipeRequest>>;

  /// The GEN_DEMAND half of HOSE_APPROVAL, split out so callers can assess
  /// the realizations elsewhere (the admission service assesses them against
  /// its residual state): draws `config().realizations` representative
  /// pipe sets from the hoses' (NPG, QoS) spaces, consuming exactly the RNG
  /// stream hose_approval would — realization 0 samples, later ones take
  /// extreme points. The assessment MUST NOT consume engine RNG state, so
  /// drawing everything up front is stream-identical to the interleaved
  /// loop. Every hose's region, QoS class and direction must be in range.
  [[nodiscard]] RealizationPipes draw_realizations(std::span<const hose::HoseRequest> hoses,
                                                   std::span<const GroupSegments> segments,
                                                   Rng& rng) const;

  /// The aggregation half of HOSE_APPROVAL: folds per-realization pipe
  /// approvals (`per_realization[k]` in the order of `realization_pipes[k]`,
  /// empty-pipe realizations skipped) into per-hose approved rates as
  /// min-over-realizations of per-hose approved/requested fractions, in
  /// ascending realization order — the deterministic merge.
  /// draw + per-realization assess + aggregate is bit-identical to one
  /// hose_approval call, at any partition of the assessments.
  [[nodiscard]] std::vector<HoseApprovalResult> aggregate_realizations(
      std::span<const hose::HoseRequest> hoses, const RealizationPipes& realization_pipes,
      std::span<const std::vector<PipeApprovalResult>> per_realization) const;

  [[nodiscard]] const ApprovalConfig& config() const { return config_; }
  [[nodiscard]] const topology::Topology& topo() const { return router_.topo(); }

  /// The engine's enumerated failure scenarios, owned by its simulator
  /// (shared with callers that run their own sweeps against the same risk
  /// model, e.g. the admission service's residual state). The span is valid
  /// until the next resync_topology().
  [[nodiscard]] std::span<const risk::FailureScenario> scenarios() const {
    return simulator_.scenarios();
  }

  /// The engine-lifetime risk simulator (exposes the SRLG index and base
  /// capacities backing every approval).
  [[nodiscard]] const risk::RiskSimulator& simulator() const { return simulator_; }

  /// Catches the engine up after a topology mutation (the router must have
  /// resync_topology()'d first): re-enumerates the failure scenarios and
  /// re-binds the simulator to them and the new base capacities. Spans from
  /// scenarios() taken before the call are invalid after it, so callers
  /// holding them (or per-scenario state) reconstruct it. Returns whether
  /// the scenario set changed in value: when it did, every availability
  /// curve's probability masses move.
  bool resync_topology();

 private:
  topology::Router& router_;
  ApprovalConfig config_;
  LowTouchPredicate low_touch_;
  /// The engine's one risk model (scenario set, SRLG index, base capacities)
  /// for its lifetime: hose_approval's per-realization pipe approvals, every
  /// pipe_approval call and verify reuse it and the router's warmed path
  /// cache instead of rebuilding per call.
  risk::RiskSimulator simulator_;
};

/// Total approved / total requested, the Figure 22 metric.
[[nodiscard]] double approval_percentage(std::span<const HoseApprovalResult> results,
                                         hose::Direction direction);

}  // namespace netent::approval
