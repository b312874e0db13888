// Contract approval (§4.3, Algorithm 2): HOSE_APPROVAL converts hose
// requests into representative pipe realizations, PIPE_APPROVAL assesses each
// realization against failure risk (via the Risk Simulation System) with QoS
// classes processed in priority order, and per-hose approvals are aggregated
// as min-over-realizations of the summed pipe approvals. verify() replays the
// engine's own placement order to measure SLO attainment (§3.2).
#pragma once

#include <functional>
#include <optional>
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
  /// Two-tier risk verification (risk/fast_estimator.h): when enabled, pipe
  /// approvals first try the conservative analytical bound and only fall
  /// back to the exact scenario sweep when it cannot clear the SLO (plus
  /// `fastpath.slo_margin`). Approved rates are bit-identical either way —
  /// the bound is never optimistic, so a fast admit is exactly the full
  /// approval the sweep would have produced. Default: exact-only.
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
  /// residual-capacity sweep. The provider must not consume engine RNG state
  /// so the surrounding approval stays bit-identical across backends.
  using CurveProvider =
      std::function<std::vector<risk::AvailabilityCurve>(std::span<const topology::Demand>)>;

  /// What the fast tier did for one pipe_approval_with call.
  struct FastPassResult {
    bool attempted = false;  ///< a fast estimator was consulted
    bool hit = false;        ///< every pipe cleared; the exact sweep was skipped
    /// On a hit: the conservative bound per placement-ordered demand (the
    /// admission service's audit replays these against the exact sweep).
    std::vector<double> bounds;
  };

  /// PIPE_APPROVAL with a caller-supplied risk backend. Ordering, SLO
  /// lookup, strict-batch handling and verdict metrics are identical to
  /// pipe_approval; only ASSESS_RISK is delegated.
  ///
  /// When `fast` is non-null and `config().fastpath.enabled`, the call first
  /// tries the analytical tier: if every placement-ordered demand's bound
  /// clears slo_availability + fastpath.slo_margin (accounting earlier
  /// window demands via worst-case link charges), all pipes are approved at
  /// their full requested rates WITHOUT invoking `curves_for` — which is
  /// exactly what the exact tier would have approved, the bound being a
  /// lower bound on the exact availability. `fast` must summarize the same
  /// residual state `curves_for` assesses against (the caller owns that
  /// contract); `fast_out`, when given, reports the tier taken. On fast hits
  /// `availability_at_request` carries the conservative bound rather than
  /// the exact availability.
  [[nodiscard]] std::vector<PipeApprovalResult> pipe_approval_with(
      std::span<const hose::PipeRequest> pipes, const CurveProvider& curves_for,
      const risk::FastEstimator* fast = nullptr, FastPassResult* fast_out = nullptr) const;

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
  /// loop.
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
  /// model, e.g. the admission service's residual state).
  [[nodiscard]] std::span<const risk::FailureScenario> scenarios() const {
    return simulator_.scenarios();
  }

  /// The engine-lifetime risk simulator (exposes the SRLG index and base
  /// capacities backing every approval).
  [[nodiscard]] const risk::RiskSimulator& simulator() const { return simulator_; }

  /// Catches the engine up after a topology mutation (the router must have
  /// resync_topology()'d first): re-enumerates the failure scenarios,
  /// re-binds the simulator to the new base capacities, and rebuilds the
  /// engine's pristine fast-tier summary. When the enumerated scenario set
  /// is value-identical to the old one (capacity-only deltas rarely move
  /// MTBF/MTTR) RiskSimulator::resync leaves it physically in place, so
  /// spans from scenarios() taken by outside estimators stay valid. Returns
  /// whether the scenario set changed — callers holding scenario spans or
  /// per-scenario state must reconstruct it when true (and when the link
  /// count grew, regardless).
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
  /// Fast tier over the engine's own assessment state (every pipe_approval
  /// batch starts from the pristine base capacities). Populated only when
  /// config_.fastpath.enabled; pipe_approval passes it through.
  std::optional<risk::FastEstimator> fast_;

  /// (Re)builds fast_ over the current scenarios and base capacities.
  void rebuild_fast_tier();
};

/// Total approved / total requested, the Figure 22 metric.
[[nodiscard]] double approval_percentage(std::span<const HoseApprovalResult> results,
                                         hose::Direction direction);

}  // namespace netent::approval
