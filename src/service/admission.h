// The online admission service (§1, §5 "agility"): contracts "can be
// requested at any time", so on top of the batch-mode approval engine this
// module provides a long-lived, thread-safe admission plane serving a
// stream of admit / resize / release contract requests.
//
// Architecture. The controller owns the admitted-contract set (a
// core::ContractDb, the one registry of in-force contracts) plus one warmed
// topology::Router and one approval::ApprovalEngine (scenario set + SRLG
// index + risk simulator) kept alive across requests. Requests arriving
// within a batching window are coalesced into ONE joint approval: the
// window's hoses are concatenated in submission order, drawn with
// ApprovalEngine::draw_realizations, assessed per realization with
// pipe_approval_with against the residual state and folded with
// aggregate_realizations — the three steps hose_approval runs — so a window
// evaluated against an empty service is bit-identical to a single
// hose_approval call on the same set (pinned in tests/test_admission.cpp).
// The service supplies pipe_approval_with's curves: the fast tier's bounds
// when they clear the SLO (risk/fast_estimator.h), the exact residual sweep
// otherwise.
//
// Incrementality. A window assesses only its own pipes, against the
// residual capacities the committed grants leave per (realization, failure
// scenario), which a ResidualHistory (residual_history.h) keeps exact:
// grants are appended to it, and releases, resizes and topology
// re-verification stage edits of its history that the window commits.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "approval/approval.h"
#include "approval/negotiation.h"
#include "common/exec_config.h"
#include "common/expected.h"
#include "common/rng.h"
#include "core/contract_db.h"
#include "hose/requests.h"
#include "risk/fast_estimator.h"
#include "service/residual_history.h"
#include "topology/routing.h"
#include "topology/topology.h"

namespace netent::service {

enum class RequestKind : std::uint8_t { admit, resize, release, topology };

/// One streamed contract request. `hoses` (admit/resize) may span several
/// QoS classes and regions but must all belong to `npg`.
struct AdmissionRequest {
  RequestKind kind = RequestKind::admit;
  NpgId npg;                ///< admit: the requesting NPG (one live contract each)
  std::string npg_name;     ///< admit: display name for the contract
  ContractId contract = 0;  ///< resize/release: which contract
  std::vector<hose::HoseRequest> hoses;  ///< admit/resize: requested hoses
  /// topology: the mutation batch to apply (validated as a unit by
  /// Topology::validate_batch — any invalid mutation fails the request
  /// without applying anything).
  std::vector<topology::Mutation> mutations;
};

enum class AdmissionStatus : std::uint8_t {
  admitted,  ///< contract created at the approved rates
  resized,   ///< contract replaced at the newly approved rates
  released,  ///< contract removed, its capacity reclaimed
  rejected,  ///< approval below the acceptance threshold; nothing reserved
  failed,    ///< malformed request or internal error (see `error`)
  topology_applied,  ///< mutation batch applied; `reverified` has the verdicts
};

/// Verdict on one in-force contract re-verified after a topology delta.
enum class VerdictKind : std::uint8_t {
  reaffirmed,  ///< still fully supportable; grant unchanged
  shrunk,      ///< partially supportable; grant scaled to `fraction`
  revoked,     ///< no longer supportable; contract removed
};

struct ContractVerdict {
  ContractId contract = 0;
  VerdictKind kind = VerdictKind::reaffirmed;
  /// Supportable fraction of the current grant in [0, 1] (1 = reaffirmed,
  /// 0 = revoked). Shrunk contracts keep `fraction` of every committed
  /// demand and entitlement.
  double fraction = 1.0;
};

struct AdmissionOutcome {
  AdmissionStatus status = AdmissionStatus::failed;
  ContractId contract = 0;  ///< assigned (admit) or echoed (resize/release)
  /// Per-hose approvals in request-hose order (admit/resize; empty for
  /// release). Also populated for rejections, as diagnostics.
  std::vector<approval::HoseApprovalResult> approvals;
  /// Negotiation counter-proposals, attached to rejections (§8): partial
  /// volume, alternative regions, lower QoS classes.
  std::vector<approval::CounterProposal> proposals;
  /// topology_applied: one verdict per re-verified in-force contract, in
  /// ascending ContractId order (contracts untouched by the delta are not
  /// listed — they are trivially reaffirmed).
  std::vector<ContractVerdict> reverified;
  std::optional<Error> error;  ///< set when status == failed
};

struct AdmissionConfig {
  /// Approval settings (SLO target, realizations, scenario enumeration).
  /// The controller overwrites `approval.exec` with its resolved `exec`, so
  /// one knob drives the whole service. `approval.fastpath` also selects the
  /// two-tier risk verification: when enabled, each pure-admit window's
  /// realizations are first assessed by the analytical FastEstimator bound
  /// over the per-link headroom of their live residuals, falling back to the
  /// exact residual sweep when the bound cannot clear the SLO.
  /// Verdicts and residual state are bit-identical to exact-only; fast
  /// admits are recorded for a deferred exact audit (`audit_fastpath`) when
  /// `approval.fastpath.audit` is set.
  approval::ApprovalConfig approval;
  approval::NegotiationConfig negotiation;
  /// Execution resources for the per-(realization, scenario) fan-outs.
  /// `exec.threads` (unset: the hardware concurrency) caps how many
  /// shared-pool workers a fan-out enlists; fan-outs smaller than
  /// kFanOutCutoffPlacements run inline (common/thread_pool.h). Results are
  /// bit-identical for every thread count.
  common::ExecConfig exec;
  std::size_t router_paths = 4;
  std::uint64_t seed = 1;  ///< drives realization drawing (deterministic)
  /// Coalescing window: requests arriving within this span of the first
  /// queued request are approved jointly (background mode only).
  double batch_window_seconds = 0.010;
  /// Minimum approved/requested fraction to admit. 0 admits anything with a
  /// non-zero guarantee (partial approvals, the default); 1.0 requires the
  /// full request, turning shortfalls into rejections + counter-proposals.
  double admit_min_fraction = 0.0;
  /// Attach negotiation counter-proposals to rejections (costs extra
  /// approval probes).
  bool attach_counter_proposals = true;
  /// Enforcement period written into admitted contracts.
  core::Period period{0.0, 90.0 * 86400.0};
  /// true: a worker thread coalesces submissions by wall-clock window.
  /// false: requests queue until flush() — deterministic windows, used by
  /// tests and single-threaded drivers.
  bool background = true;
};

class AdmissionController {
 public:
  AdmissionController(const topology::Topology& topo, AdmissionConfig config);
  /// Mutable-topology overload: additionally enables RequestKind::topology
  /// windows (apply_topology_delta), which mutate `topo` in place and
  /// re-verify the in-force contract set against the evolved network. The
  /// controller must be the only mutator of `topo` for its lifetime.
  AdmissionController(topology::Topology& topo, AdmissionConfig config);
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Enqueues a request; the future resolves when its window is processed.
  /// Thread-safe; submissions from concurrent callers land in one window.
  [[nodiscard]] std::future<AdmissionOutcome> submit(AdmissionRequest request);

  /// Synchronous conveniences: submit + (in manual mode) flush + wait.
  AdmissionOutcome admit(NpgId npg, std::string npg_name,
                         std::vector<hose::HoseRequest> hoses);
  AdmissionOutcome resize(ContractId contract, std::vector<hose::HoseRequest> hoses);
  AdmissionOutcome release(ContractId contract);
  /// Applies a topology mutation batch as its own serialized window (the
  /// mutable-topology constructor is required; otherwise the outcome is
  /// `failed`). The whole batch is validated first — one invalid mutation
  /// fails the request without applying anything. On success the router,
  /// approval engine and residuals are resynced (bit-identical to a
  /// from-scratch rebuild on the mutated topology), the fast tier's
  /// estimator is rebuilt for the new links and scenarios, and every
  /// in-force contract whose placement the delta can affect is re-verified:
  /// still-supportable contracts are reaffirmed, partially supportable ones
  /// shrunk in place, unsupportable ones revoked.
  /// Verdicts land in AdmissionOutcome::reverified. Deterministic at every
  /// thread count: topology windows consume no admission RNG.
  AdmissionOutcome apply_topology_delta(std::vector<topology::Mutation> mutations);

  /// Processes every queued request as one window, synchronously. In
  /// background mode this is a drain (the worker may also be processing).
  void flush();

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }
  [[nodiscard]] std::size_t admitted_count() const;
  /// Copy of the admitted-contract database (runtime ids populated).
  [[nodiscard]] core::ContractDb contracts_snapshot() const;

  /// Residual per-link capacities, indexed [realization][scenario][link].
  /// `residual_snapshot` materializes the incrementally maintained sparse
  /// state on demand (the service itself reads it in place);
  /// `rebuild_residuals_from_scratch` recomputes the same state from the
  /// recorded commit history. The two are bit-identical after every window —
  /// the delta-replay equivalence the tests pin.
  using ResidualState = ResidualHistory::ResidualState;
  [[nodiscard]] ResidualState residual_snapshot() const;
  [[nodiscard]] ResidualState rebuild_residuals_from_scratch() const;

  /// Work of one from-scratch residual rebuild, in placements: the demands
  /// in the commit history, summed over realizations, times the scenario
  /// count. Rebuilds of at least kFanOutCutoffPlacements
  /// (common/thread_pool.h) fan out on the shared pool.
  [[nodiscard]] std::size_t rebuild_placements() const;

  /// Work of the history edits so far (releases, resizes, topology
  /// windows), in placements; see ResidualHistory::ReplayStats. Replays fan
  /// out on the same cutoff as rebuilds.
  using ReplayStats = ResidualHistory::ReplayStats;
  [[nodiscard]] ReplayStats replay_stats() const;

  /// Per realization, the ascending history positions (demands placed) of
  /// the residual snapshots edits restore from; never more than kSnapshots.
  [[nodiscard]] std::vector<std::vector<std::size_t>> snapshot_positions() const;
  static constexpr std::size_t kSnapshots = ResidualHistory::kSnapshots;

  /// Two-tier fast-path accounting (all zero when fastpath is disabled).
  /// `violations` counts audited fast admits whose bound exceeded the exact
  /// availability — the conservativeness invariant says it must stay zero.
  struct FastPathStats {
    std::uint64_t hits = 0;       ///< realizations admitted by the bound
    std::uint64_t fallbacks = 0;  ///< realizations that fell back to exact
    std::uint64_t audited = 0;    ///< fast-admitted demands exactly re-checked
    std::uint64_t violations = 0; ///< bound > exact availability (must be 0)
  };
  [[nodiscard]] FastPathStats fastpath_stats() const;

  /// Drains the deferred exact-audit queue: every fast-admitted realization
  /// is replayed through the exact per-scenario sweep against the residual
  /// state its bound was computed from, and any bound above the exact
  /// availability counts as a violation (risk.fastpath.audit_violations).
  /// The background worker drains opportunistically when idle; manual-mode
  /// drivers (tests, benches) call this explicitly. Returns the number of
  /// records audited. Thread-safe.
  std::size_t audit_fastpath();
  /// Most records the audit queue holds: a window that would leave more
  /// audits its oldest records inline (risk.fastpath.audits_inline), so an
  /// undrained backlog stays bounded in memory.
  static constexpr std::size_t kAuditBacklog = 512;

  /// The enumerated failure scenarios backing every assessment, indexed as
  /// residual_snapshot()'s scenarios are.
  [[nodiscard]] std::span<const risk::FailureScenario> scenarios() const;

 private:
  using History = ResidualHistory::History;

  struct Pending {
    AdmissionRequest request;
    std::promise<AdmissionOutcome> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One fast-admitted realization queued for its deferred exact audit: the
  /// placement-ordered demands, the bounds claimed for them, and the
  /// residuals the bounds were computed against, copied at decision time
  /// since the live state advances with every commit. The audit's water-fill
  /// only reads links on the demands' candidate paths, so the copy covers
  /// exactly those `links`: O(scenarios x touched links) on the admission
  /// hot path instead of a full O(scenarios x links) clone.
  struct AuditRecord {
    std::vector<topology::Demand> demands;
    std::vector<double> bounds;
    std::vector<LinkId> links;  ///< sorted, deduped candidate-path links
    /// Flat [scenario * links.size() + i] residuals for links[i].
    std::vector<double> residuals;
  };
  struct Window;

  void worker_loop();
  void process_window(std::vector<Pending> window);
  [[nodiscard]] std::vector<AdmissionOutcome> evaluate_window(std::vector<Pending>& pending);
  /// evaluate_window's phases: classify the requests; stage the releases'
  /// and resizes' edit, then draw and assess; accept or reject, and commit.
  /// A window that throws before its commit changes nothing, since its
  /// staged edit drops itself.
  void classify(Window& window);
  void assess(Window& window);
  void commit(Window& window);
  /// Processes one RequestKind::topology request: validate the whole batch,
  /// apply it to *mutable_topo_, resync every topology-derived cache
  /// (router, approval engine, the fast tier's estimator, residuals) and
  /// re-verify affected in-force contracts.
  [[nodiscard]] AdmissionOutcome evaluate_topology_window(const AdmissionRequest& request);
  /// The in-force contracts the delta applied since `from_epoch` can affect.
  [[nodiscard]] std::set<ContractId> affected_contracts(
      std::uint64_t from_epoch, std::span<const std::pair<RegionId, RegionId>> changed_pairs,
      bool scenarios_changed) const;
  /// Judges one in-force contract on the mutated network; applies the verdict.
  ContractVerdict reverify(ContractId id);
  /// Audits one queued fast-admit record; false when the queue is empty.
  bool audit_one();
  /// The audit replay itself; caller holds state_mutex_. Topology windows
  /// settle the whole queue through this before mutating (the records
  /// snapshot PRE-mutation residual state over the pre-mutation scenarios).
  void audit_record_locked(const AuditRecord& record);

  /// Availability curves for placement-ordered demands against one
  /// realization's `residuals` (the incremental ASSESS_RISK). Warms router_
  /// for the demand pairs, then sweeps the scenarios read-only.
  [[nodiscard]] std::vector<risk::AvailabilityCurve> curves_against_residuals(
      const ResidualHistory::Residuals& residuals, std::span<const topology::Demand> demands);
  /// Tier 1 for one realization's non-empty placement-ordered demands: the
  /// bound per demand against the realization's `residuals`, each demand
  /// charged against the window for the demands after it. Empty unless every
  /// bound reaches the SLO target.
  [[nodiscard]] std::vector<double> fast_bounds(const ResidualHistory::Residuals& residuals,
                                                std::span<const topology::Demand> demands);

  AdmissionConfig config_;
  std::size_t threads_ = 1;
  /// Non-null iff constructed with the mutable-topology overload; the only
  /// handle through which topology windows mutate the network.
  topology::Topology* mutable_topo_ = nullptr;
  topology::Router router_;
  approval::ApprovalEngine engine_;
  approval::NegotiationEngine negotiator_;

  /// Service state, guarded by state_mutex_ (windows are processed one at a
  /// time; the parallel fan-outs inside a window are internal).
  mutable std::mutex state_mutex_;
  ResidualHistory residuals_;
  core::ContractDb db_;  ///< the in-force contracts, runtime ids populated
  Rng rng_;
  ContractId next_contract_id_ = 1;
  std::uint64_t window_seq_ = 0;
  /// The tier-1 estimator over the current links and scenarios, shared by
  /// every realization (empty when fastpath is disabled). Guarded by
  /// state_mutex_.
  std::optional<risk::FastEstimator> fast_;
  FastPathStats fast_stats_;  ///< guarded by state_mutex_

  /// Deferred exact-audit queue, guarded by audit_mutex_. Never hold
  /// audit_mutex_ while acquiring state_mutex_ (enqueue takes audit under
  /// state; the drain pops under audit alone, then computes under state).
  std::mutex audit_mutex_;
  std::deque<AuditRecord> audit_queue_;

  /// Submission queue, guarded by queue_mutex_.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<Pending> pending_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace netent::service
