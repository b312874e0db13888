#include "service/admission.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "risk/simulator.h"

namespace netent::service {

using approval::HoseApprovalResult;
using approval::PipeApprovalResult;
using hose::HoseRequest;
using hose::PipeRequest;
using topology::Demand;

namespace {

/// The shared approval-plane rate epsilon (approval/approval.h): the service
/// must agree with the engine and the negotiation layer on what counts as
/// "zero bandwidth".
constexpr double kEps = approval::kRateEpsGbps;

struct ServiceMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& requests = reg.counter("service.admission.requests");
  obs::Counter& admitted = reg.counter("service.admission.admitted");
  obs::Counter& resized = reg.counter("service.admission.resized");
  obs::Counter& released = reg.counter("service.admission.released");
  obs::Counter& rejected = reg.counter("service.admission.rejected");
  obs::Counter& failed = reg.counter("service.admission.failed");
  /// Topology-lifecycle windows: mutation batches applied, and the verdict
  /// split over the in-force contracts each delta re-verified.
  obs::Counter& topology_applied = reg.counter("service.admission.topology_applied");
  obs::Counter& mutations_applied = reg.counter("service.admission.mutations_applied");
  obs::Counter& contracts_reverified = reg.counter("service.admission.contracts_reverified");
  obs::Counter& contracts_shrunk = reg.counter("service.admission.contracts_shrunk");
  obs::Counter& contracts_revoked = reg.counter("service.admission.contracts_revoked");
  obs::Counter& windows = reg.counter("service.admission.windows");
  obs::Counter& rebuilds = reg.counter("service.admission.rebuilds");
  obs::Counter& counter_proposals = reg.counter("service.admission.counter_proposals");
  obs::Counter& committed_demands = reg.counter("service.admission.committed_demands");
  obs::Counter& fastpath_audited = reg.counter("risk.fastpath.audited");
  obs::Counter& fastpath_audit_violations = reg.counter("risk.fastpath.audit_violations");
  obs::Histogram& window_size = reg.histogram("service.admission.window_size",
                                              std::array{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Histogram& latency_seconds = reg.timer_histogram("service.admission.latency_seconds");
  obs::Histogram& window_seconds = reg.timer_histogram("service.admission.window_seconds");
};

ServiceMetrics& metrics() {
  static ServiceMetrics instance;
  return instance;
}

/// The approval config the engine is built with: the service's resolved
/// thread count pinned into the unified exec knob.
approval::ApprovalConfig with_threads(approval::ApprovalConfig config, std::size_t threads) {
  config.exec.threads = threads;
  return config;
}

AdmissionOutcome failed_outcome(ErrorCode code, std::string message) {
  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::failed;
  outcome.error = Error{code, std::move(message)};
  return outcome;
}

/// The sorted, deduplicated links on the cached candidate paths of
/// `demands` (elements carry a topology::Demand in `.demand`): every link a
/// water-fill of those demands can read or write.
template <class Demands>
std::vector<LinkId> candidate_links(const topology::Router& router, const Demands& demands) {
  std::vector<LinkId> links;
  for (const auto& tagged : demands) {
    const topology::PathList paths = router.cached_paths(tagged.demand.src, tagged.demand.dst);
    NETENT_EXPECTS(paths.valid());
    for (const topology::PathView path : paths) {
      links.insert(links.end(), path.links.begin(), path.links.end());
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

}  // namespace

AdmissionController::AdmissionController(const topology::Topology& topo, AdmissionConfig config)
    : config_(std::move(config)),
      threads_(config_.exec.resolve()),
      router_(topo, config_.router_paths),
      engine_(router_, with_threads(config_.approval, threads_)),
      negotiator_(engine_, config_.negotiation),
      rng_(config_.seed) {
  NETENT_EXPECTS(config_.batch_window_seconds >= 0.0);
  NETENT_EXPECTS(config_.admit_min_fraction >= 0.0 && config_.admit_min_fraction <= 1.0);
  config_.approval.exec.threads = threads_;  // config() reflects the resolution
  history_.resize(config_.approval.realizations);
  residual_ = residuals_of(history_);
  rebuild_fastpath();
  if (config_.background) {
    worker_ = std::thread(&AdmissionController::worker_loop, this);
  }
}

AdmissionController::AdmissionController(topology::Topology& topo, AdmissionConfig config)
    : AdmissionController(static_cast<const topology::Topology&>(topo), std::move(config)) {
  // The delegated constructor may already have started the worker; publish
  // the mutable handle under the state lock it will read it under.
  const std::lock_guard<std::mutex> lock(state_mutex_);
  mutable_topo_ = &topo;
}

AdmissionController::~AdmissionController() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Every fast admit gets its exact audit before the controller dies, so
  // the violation counters are final.
  (void)audit_fastpath();
  // Manual-mode leftovers (or submissions that raced shutdown) must not
  // leave dangling futures.
  std::vector<Pending> leftover;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(pending_);
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(
        failed_outcome(ErrorCode::invalid_argument, "admission controller shut down"));
  }
}

std::future<AdmissionOutcome> AdmissionController::submit(AdmissionRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<AdmissionOutcome> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(std::move(pending));
  }
  queue_cv_.notify_all();
  metrics().requests.add();
  return future;
}

AdmissionOutcome AdmissionController::admit(NpgId npg, std::string npg_name,
                                            std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::admit;
  request.npg = npg;
  request.npg_name = std::move(npg_name);
  request.hoses = std::move(hoses);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::resize(ContractId contract,
                                             std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::resize;
  request.contract = contract;
  request.hoses = std::move(hoses);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::release(ContractId contract) {
  AdmissionRequest request;
  request.kind = RequestKind::release;
  request.contract = contract;
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

AdmissionOutcome AdmissionController::apply_topology_delta(
    std::vector<topology::Mutation> mutations) {
  AdmissionRequest request;
  request.kind = RequestKind::topology;
  request.mutations = std::move(mutations);
  auto future = submit(std::move(request));
  if (!config_.background) flush();
  return future.get();
}

void AdmissionController::flush() {
  std::vector<Pending> window;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    window.swap(pending_);
  }
  process_window(std::move(window));
}

void AdmissionController::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    // Idle time pays the audit debt: fast admits queued for exact
    // verification drain while no request is waiting.
    while (!stopping_ && pending_.empty()) {
      bool audits_pending = false;
      {
        const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
        audits_pending = !audit_queue_.empty();
      }
      if (!audits_pending) {
        queue_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
        break;
      }
      // One record per iteration, so an arriving request is never stuck
      // behind a long audit backlog.
      lock.unlock();
      (void)audit_one();
      lock.lock();
    }
    if (pending_.empty()) {
      if (stopping_) return;
      continue;
    }
    if (!stopping_ && config_.batch_window_seconds > 0.0) {
      // Coalesce: requests arriving within the window of the first queued
      // one join the same joint approval.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.batch_window_seconds));
      while (!stopping_ && std::chrono::steady_clock::now() < deadline) {
        queue_cv_.wait_until(lock, deadline);
      }
    }
    std::vector<Pending> window;
    window.swap(pending_);
    lock.unlock();
    process_window(std::move(window));
    lock.lock();
  }
}

void AdmissionController::process_window(std::vector<Pending> window) {
  if (window.empty()) return;
  ServiceMetrics& m = metrics();
  std::vector<AdmissionOutcome> outcomes;
  {
    const obs::ScopedTimer span(m.window_seconds);
    const std::lock_guard<std::mutex> lock(state_mutex_);
    try {
      outcomes = evaluate_window(window);
    } catch (const std::exception& e) {
      // State mutations happen after evaluation succeeds, so a throwing
      // window leaves the admitted set untouched; fail the whole window.
      outcomes.clear();
      for (std::size_t i = 0; i < window.size(); ++i) {
        outcomes.push_back(failed_outcome(ErrorCode::invalid_argument,
                                          std::string("window processing failed: ") + e.what()));
      }
    }
  }
  NETENT_ENSURES(outcomes.size() == window.size());
  m.windows.add();
  m.window_size.record(static_cast<double>(window.size()));
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < window.size(); ++i) {
    switch (outcomes[i].status) {
      case AdmissionStatus::admitted: m.admitted.add(); break;
      case AdmissionStatus::resized: m.resized.add(); break;
      case AdmissionStatus::released: m.released.add(); break;
      case AdmissionStatus::rejected: m.rejected.add(); break;
      case AdmissionStatus::failed: m.failed.add(); break;
      case AdmissionStatus::topology_applied: m.topology_applied.add(); break;
    }
    m.latency_seconds.record(std::chrono::duration<double>(now - window[i].enqueued).count());
    window[i].promise.set_value(std::move(outcomes[i]));
  }
}

std::vector<AdmissionOutcome> AdmissionController::evaluate_window(std::vector<Pending>& window) {
  ++window_seq_;
  ServiceMetrics& m = metrics();
  const std::size_t realizations = config_.approval.realizations;
  const std::size_t region_count = router_.topo().region_count();
  std::vector<AdmissionOutcome> outcomes(window.size());

  // --- Phase 0: topology windows. Mutation batches are serialized ahead of
  // the window's contract requests (in submission order among themselves),
  // so the admits / resizes below evaluate against the evolved network.
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (window[i].request.kind == RequestKind::topology) {
      outcomes[i] = evaluate_topology_window(window[i].request);
    }
  }

  // --- Phase 1: validate and classify, in submission order. ---------------
  struct EvalEntry {
    std::size_t index = 0;  ///< window position
    bool is_resize = false;
    ContractId id = 0;  ///< resize: the existing contract
    NpgId npg;
    std::string name;
    const std::vector<HoseRequest>* hoses = nullptr;
    std::size_t hose_begin = 0;  ///< offset into the joint window hose list
    bool accepted = false;
  };
  std::vector<EvalEntry> entries;
  std::set<ContractId> released_ids;
  std::set<ContractId> touched_ids;     ///< resize/release targets seen this window
  std::set<std::uint32_t> window_npgs;  ///< NPGs claimed by this window's admits

  const auto fail = [&](std::size_t i, ErrorCode code, std::string message) {
    outcomes[i] = failed_outcome(code, std::move(message));
  };
  // Request-shape validation, Expected-style (common/expected.h taxonomy):
  // every failure is invalid_argument with the offending hose index in the
  // message, so a spec-compiled or hand-built request fails identically.
  const auto validate_hoses = [&](const AdmissionRequest& request,
                                  NpgId npg) -> Expected<void> {
    if (request.hoses.empty()) {
      return Error{ErrorCode::invalid_argument, "request has no hoses"};
    }
    double total = 0.0;
    for (std::size_t h = 0; h < request.hoses.size(); ++h) {
      const HoseRequest& hose = request.hoses[h];
      const std::string field = "hoses[" + std::to_string(h) + "]";
      if (hose.npg != npg) {
        return Error{ErrorCode::invalid_argument,
                     field + ".npg: differs from the request's NPG"};
      }
      if (hose.region.value() >= region_count) {
        return Error{ErrorCode::invalid_argument,
                     field + ".region: region " + std::to_string(hose.region.value()) +
                         " out of range (topology has " + std::to_string(region_count) +
                         " regions)"};
      }
      if (!std::isfinite(hose.rate.value()) || hose.rate < Gbps(0)) {
        return Error{ErrorCode::invalid_argument, field + ".rate: must be finite and >= 0"};
      }
      total += hose.rate.value();
    }
    if (total <= kEps) {
      return Error{ErrorCode::invalid_argument, "request asks for zero bandwidth"};
    }
    return {};
  };

  for (std::size_t i = 0; i < window.size(); ++i) {
    const AdmissionRequest& request = window[i].request;
    switch (request.kind) {
      case RequestKind::admit: {
        const core::EntitlementContract* held = db_.find(request.npg);
        const bool live = held != nullptr && released_ids.count(held->id) == 0;
        if (live || window_npgs.count(request.npg.value()) != 0) {
          fail(i, ErrorCode::invalid_argument, "NPG already holds a live contract (use resize)");
          break;
        }
        if (auto ok = validate_hoses(request, request.npg); !ok) {
          fail(i, ok.error().code, ok.error().message);
          break;
        }
        window_npgs.insert(request.npg.value());
        EvalEntry entry;
        entry.index = i;
        entry.npg = request.npg;
        entry.name = request.npg_name;
        entry.hoses = &request.hoses;
        entries.push_back(std::move(entry));
        break;
      }
      case RequestKind::resize:
      case RequestKind::release: {
        const core::EntitlementContract* existing = db_.find_by_id(request.contract);
        if (existing == nullptr) {
          fail(i, ErrorCode::not_found,
               "unknown contract id " + std::to_string(request.contract));
          break;
        }
        if (!touched_ids.insert(request.contract).second) {
          fail(i, ErrorCode::invalid_argument,
               "contract already targeted by an earlier request in this window");
          break;
        }
        if (request.kind == RequestKind::release) {
          // Committed in phase 4; a throwing window fails every outcome.
          released_ids.insert(request.contract);
          outcomes[i].status = AdmissionStatus::released;
          outcomes[i].contract = request.contract;
          break;
        }
        if (auto ok = validate_hoses(request, existing->npg); !ok) {
          fail(i, ok.error().code, ok.error().message);
          break;
        }
        EvalEntry entry;
        entry.index = i;
        entry.is_resize = true;
        entry.id = request.contract;
        entry.npg = existing->npg;
        entry.name = existing->npg_name;
        entry.hoses = &request.hoses;
        entries.push_back(std::move(entry));
        break;
      }
      case RequestKind::topology:
        break;  // handled in phase 0
    }
  }

  // --- Phase 2: joint approval of the window against residual capacity. ---
  // Releases (and resize targets) free their reservations for the
  // evaluation: their demands are dropped from the commit history and the
  // residuals are recomputed from it. A rejected resize keeps its old grant
  // (restored in phase 4), so the evaluation is optimistic about resizes
  // that end up rejected — the trade for keeping the window joint.
  std::set<ContractId> eval_removed = released_ids;
  for (const EvalEntry& entry : entries) {
    if (entry.is_resize) eval_removed.insert(entry.id);
  }
  History eval_history;
  ResidualState eval_scratch;
  const ResidualState* eval_residual = &residual_;
  if (!eval_removed.empty()) {
    eval_history = history_;
    prune(eval_history, eval_removed);
    eval_scratch = residuals_of(eval_history);
    eval_residual = &eval_scratch;
    m.rebuilds.add();
  }

  std::vector<HoseRequest> window_hoses;
  for (EvalEntry& entry : entries) {
    entry.hose_begin = window_hoses.size();
    window_hoses.insert(window_hoses.end(), entry.hoses->begin(), entry.hoses->end());
  }

  // Per-realization demands in the exact placement order the evaluation
  // used, NPG-tagged; accepted entries' demands become the committed batch.
  struct DrawnDemand {
    Demand demand;
    std::uint32_t npg = 0;
  };
  std::vector<std::vector<DrawnDemand>> drawn(realizations);
  std::vector<HoseApprovalResult> results;
  if (!window_hoses.empty()) {
    // Tier selection for the window: the fast summaries describe the
    // COMMITTED residual state, so the analytical tier only applies when
    // the window evaluates against exactly that state — pure-admit windows,
    // the streaming hot path. Windows with releases/resizes evaluate
    // against a rebuilt scratch state and always go exact.
    const bool fast_eligible = !fast_.empty() && eval_residual == &residual_;

    // GEN_DEMAND first, then each realization's assessment in ascending
    // order: the assessments consume no RNG, so the stream is the one
    // hose_approval draws.
    const approval::ApprovalEngine::RealizationPipes drawn_pipes =
        engine_.draw_realizations(window_hoses, {}, rng_);

    // Fast-path accounting is applied only once every realization assessed,
    // so a throwing window leaves the stats and the audit queue untouched.
    std::vector<std::vector<PipeApprovalResult>> assessed(realizations);
    FastPathStats window_fast;
    std::vector<AuditRecord> window_audits;
    for (std::size_t k = 0; k < realizations; ++k) {
      const std::span<const PipeRequest> pipes = drawn_pipes[k];
      if (pipes.empty()) continue;
      const std::vector<std::size_t> order = engine_.placement_order(pipes);
      std::vector<DrawnDemand>& record = drawn[k];
      record.reserve(order.size());
      for (const std::size_t p : order) {
        record.push_back({Demand{pipes[p].src, pipes[p].dst, pipes[p].rate}, pipes[p].npg.value()});
      }
      const risk::FastEstimator* fast = fast_eligible ? &fast_[k] : nullptr;
      approval::ApprovalEngine::FastPassResult fast_pass;
      assessed[k] = engine_.pipe_approval_with(
          pipes,
          [&](std::span<const Demand> demands) {
            return curves_against_residuals(*eval_residual, k, demands);
          },
          fast, &fast_pass);
      if (fast_pass.hit) {
        ++window_fast.hits;
      } else if (fast_pass.attempted) {
        ++window_fast.fallbacks;
      }
      if (!fast_pass.hit || !config_.approval.fastpath.audit) continue;
      // Queue the deferred exact audit with a snapshot of the state the
      // bounds summarize — but only the links the audit replay's water-fill
      // can read: the demands' candidate paths, warmed by the fast tier.
      AuditRecord audit;
      audit.demands.reserve(record.size());
      for (const DrawnDemand& d : record) audit.demands.push_back(d.demand);
      audit.links = candidate_links(router_, record);
      audit.residuals.resize(residual_[k].size() * audit.links.size());
      double* snapshot = audit.residuals.data();
      for (const std::vector<double>& scenario_residual : residual_[k]) {
        for (const LinkId link : audit.links) *snapshot++ = scenario_residual[link.value()];
      }
      audit.bounds = std::move(fast_pass.bounds);
      window_audits.push_back(std::move(audit));
    }
    results = engine_.aggregate_realizations(window_hoses, drawn_pipes, assessed);
    fast_stats_.hits += window_fast.hits;
    fast_stats_.fallbacks += window_fast.fallbacks;
    if (!window_audits.empty()) {
      const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
      std::move(window_audits.begin(), window_audits.end(), std::back_inserter(audit_queue_));
    }
  }

  // --- Phase 3: accept/reject each entry. ---------------------------------
  std::map<std::uint32_t, ContractId> accepted_ids;  // npg -> contract
  for (EvalEntry& entry : entries) {
    const std::span<const HoseApprovalResult> slice =
        std::span<const HoseApprovalResult>(results).subspan(entry.hose_begin,
                                                             entry.hoses->size());
    double requested = 0.0;
    double approved = 0.0;
    for (const HoseApprovalResult& result : slice) {
      requested += result.request.rate.value();
      approved += result.approved.value();
    }
    const double fraction = requested > 0.0 ? approved / requested : 0.0;
    AdmissionOutcome& outcome = outcomes[entry.index];
    outcome.approvals.assign(slice.begin(), slice.end());
    if (approved > kEps && fraction + 1e-12 >= config_.admit_min_fraction) {
      entry.accepted = true;
      if (!entry.is_resize) entry.id = next_contract_id_++;
      accepted_ids[entry.npg.value()] = entry.id;
      outcome.status = entry.is_resize ? AdmissionStatus::resized : AdmissionStatus::admitted;
      outcome.contract = entry.id;
    } else {
      outcome.status = AdmissionStatus::rejected;
      outcome.contract = entry.is_resize ? entry.id : 0;
      if (config_.attach_counter_proposals) {
        // Negotiation probes draw their own realizations; a window-derived
        // stream keeps the admission RNG (and so request outcomes)
        // independent of whether proposals are enabled.
        Rng nego_rng(config_.seed ^ (0x9e3779b97f4a7c15ULL + window_seq_));
        outcome.proposals = negotiator_.negotiate(slice, nego_rng);
        m.counter_proposals.add(outcome.proposals.size());
      }
    }
  }

  // --- Phase 4: commit. ----------------------------------------------------
  History batch(realizations);
  std::size_t committed = 0;
  for (std::size_t k = 0; k < realizations; ++k) {
    for (const DrawnDemand& d : drawn[k]) {
      const auto it = accepted_ids.find(d.npg);
      if (it == accepted_ids.end()) continue;
      batch[k].push_back({d.demand, it->second});
      ++committed;
    }
  }

  std::set<ContractId> final_removed = released_ids;
  for (const EvalEntry& entry : entries) {
    if (entry.is_resize && entry.accepted) final_removed.insert(entry.id);
  }
  if (!final_removed.empty()) {
    // Releases / accepted resizes remove demands from the middle of the
    // placement history, where no cheaper exact delta exists (water-filling
    // is order-sensitive): the residuals are those of the pruned history,
    // with the window's batch appended on top — the same water_fill_demand
    // sequence a full rebuild would run.
    if (final_removed == eval_removed) {
      // The evaluation already rebuilt exactly this pruned history.
      history_ = std::move(eval_history);
      residual_ = std::move(eval_scratch);
    } else {
      // A rejected resize keeps its old grant, which the evaluation dropped:
      // free the evaluation's state, then rebuild from the pruned history.
      eval_history.clear();
      eval_scratch.clear();
      prune(history_, final_removed);
      residual_ = residuals_of(history_);
      m.rebuilds.add();
    }
    if (committed > 0) commit(batch);
    rebuild_fastpath();
  } else if (committed > 0) {
    // Pure-admit hot path: append-only, so the residuals advance with the
    // same water_fill_demand sequence a from-scratch replay would run.
    commit(batch);
    refresh_fastpath(batch);  // only the batch's links moved
  }
  m.committed_demands.add(committed);

  // Contract database updates.
  for (const ContractId id : released_ids) db_.remove(id);
  for (EvalEntry& entry : entries) {
    if (!entry.accepted) continue;
    core::EntitlementContract contract;
    contract.npg = entry.npg;
    contract.npg_name = entry.name;
    contract.slo_availability = config_.approval.slo_availability;
    contract.id = entry.id;
    for (const HoseApprovalResult& result : outcomes[entry.index].approvals) {
      contract.entitlements.push_back(core::Entitlement{
          result.request.npg, result.request.qos, result.request.region,
          result.request.direction, result.approved, config_.period});
    }
    if (entry.is_resize) db_.remove(entry.id);
    db_.add(std::move(contract));
  }
  return outcomes;
}

AdmissionOutcome AdmissionController::evaluate_topology_window(const AdmissionRequest& request) {
  if (mutable_topo_ == nullptr) {
    return failed_outcome(ErrorCode::invalid_argument,
                          "topology windows need the mutable-topology constructor");
  }
  if (request.mutations.empty()) {
    return failed_outcome(ErrorCode::invalid_argument, "topology request has no mutations");
  }
  topology::Topology& topo = *mutable_topo_;
  ServiceMetrics& m = metrics();

  // --- Validate the WHOLE batch before touching anything: one invalid
  // mutation fails the request with the topology (and every derived cache)
  // intact.
  if (auto valid = topo.validate_batch(request.mutations); !valid) {
    return failed_outcome(valid.error().code,
                          "topology mutation rejected: " + valid.error().message);
  }

  // --- Settle the deferred fast-path audits first: the queued records
  // snapshot PRE-mutation residuals over the pre-mutation scenario set, so
  // they must replay against the network they were decided on.
  {
    std::vector<AuditRecord> audits;
    {
      const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
      audits.swap(audit_queue_);
    }
    for (const AuditRecord& record : audits) audit_record_locked(record);
  }

  // --- Apply, then resync every topology-derived cache in dependency
  // order: router (path store + effective capacities), then approval engine
  // (scenarios + simulator + pristine fast summaries).
  const std::uint64_t from_epoch = topo.epoch();
  for (const topology::Mutation& mut : request.mutations) (void)topo.apply(mut);
  m.mutations_applied.add(request.mutations.size());

  topology::TopologyResyncStats resync_stats;
  std::vector<std::pair<RegionId, RegionId>> changed_pairs;
  router_.resync_topology(&resync_stats, &changed_pairs);
  const bool scenarios_changed = engine_.resync_topology();

  // --- The links whose effective capacity (or existence) the delta moved,
  // both directions; with `changed_pairs` these bound which contracts the
  // delta can possibly affect.
  std::vector<char> link_changed(topo.link_count(), 0);
  const auto mark_fiber = [&](LinkId id) {
    link_changed[id.value()] = 1;
    link_changed[topo.link(id).reverse.value()] = 1;
  };
  for (const topology::MutationRecord& rec : topo.mutation_log().since(from_epoch)) {
    switch (rec.kind) {
      case topology::MutationKind::add_fiber:
      case topology::MutationKind::retire_fiber:
      case topology::MutationKind::resize_fiber:
        mark_fiber(rec.link);
        break;
      case topology::MutationKind::drain_region:
      case topology::MutationKind::undrain_region:
        for (const LinkId out : topo.out_links(rec.region)) mark_fiber(out);
        break;
      case topology::MutationKind::strike_srlgs:
      case topology::MutationKind::repair_srlgs:
        for (const topology::Link& link : topo.links()) {
          // rec.srlgs is sorted+deduped by Topology::strike/repair_srlgs.
          if (std::binary_search(rec.srlgs.begin(), rec.srlgs.end(), link.srlg)) {
            link_changed[link.id.value()] = 1;
          }
        }
        break;
    }
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> dirty_pairs;
  for (const auto& [src, dst] : changed_pairs) dirty_pairs.insert({src.value(), dst.value()});

  // A contract needs re-verification when the scenario set itself changed
  // (every availability curve's probability masses move) or any committed
  // demand routes over a changed pair / touches a changed link.
  std::set<ContractId> affected;  // ascending id order
  if (scenarios_changed) {
    for (const core::EntitlementContract& contract : db_.contracts()) affected.insert(contract.id);
  } else {
    for (const auto& per_realization : history_) {
      for (const TaggedDemand& tagged : per_realization) {
        if (affected.count(tagged.owner) != 0) continue;
        const std::vector<LinkId> links = candidate_links(router_, std::span(&tagged, 1));
        if (dirty_pairs.count({tagged.demand.src.value(), tagged.demand.dst.value()}) != 0 ||
            std::any_of(links.begin(), links.end(),
                        [&](LinkId link) { return link_changed[link.value()] != 0; })) {
          affected.insert(tagged.owner);
        }
      }
    }
  }

  // --- Re-verify each affected contract in ascending id order, applying
  // each verdict before judging the next (deterministic: no RNG, and every
  // step below is bit-identical at any thread count). A contract is
  // judged by re-placing its committed demands LAST: against residuals with
  // every other in-force grant placed, the fraction of each demand that
  // still clears the SLO target bounds what the evolved network supports.
  const std::size_t realizations = config_.approval.realizations;
  const double slo = config_.approval.slo_availability;
  std::vector<ContractVerdict> verdicts;
  for (const ContractId id : affected) {
    History others = history_;
    const History own = prune(others, {id});
    const ResidualState minus_c = residuals_of(others);
    double worst = 1.0;
    for (std::size_t k = 0; k < realizations; ++k) {
      if (own[k].empty()) continue;
      std::vector<Demand> demands;
      for (const TaggedDemand& tagged : own[k]) demands.push_back(tagged.demand);
      const std::vector<risk::AvailabilityCurve> curves =
          curves_against_residuals(minus_c, k, demands);
      for (std::size_t i = 0; i < demands.size(); ++i) {
        const double amount = demands[i].amount.value();
        if (amount <= kEps) continue;
        const double supported = curves[i].bandwidth_at(slo).value();
        worst = std::min(worst, supported + 1e-9 >= amount ? 1.0 : supported / amount);
      }
    }
    ContractVerdict verdict;
    verdict.contract = id;
    m.contracts_reverified.add();
    if (worst >= 1.0) {
      verdict.kind = VerdictKind::reaffirmed;
      verdict.fraction = 1.0;
    } else if (worst <= kEps) {
      verdict.kind = VerdictKind::revoked;
      verdict.fraction = 0.0;
      prune(history_, {id});
      db_.remove(id);
      m.contracts_revoked.add();
    } else {
      verdict.kind = VerdictKind::shrunk;
      verdict.fraction = worst;
      for (auto& per_realization : history_) {
        for (TaggedDemand& tagged : per_realization) {
          if (tagged.owner == id) tagged.demand.amount = Gbps(tagged.demand.amount.value() * worst);
        }
      }
      const core::EntitlementContract* existing = db_.find_by_id(id);
      NETENT_EXPECTS(existing != nullptr);
      core::EntitlementContract updated = *existing;
      for (core::Entitlement& entitlement : updated.entitlements) {
        entitlement.entitled_rate = Gbps(entitlement.entitled_rate.value() * worst);
      }
      db_.remove(id);
      db_.add(std::move(updated));
      m.contracts_shrunk.add();
    }
    verdicts.push_back(verdict);
  }

  // --- Rebuild the maintained residual state (the scenario set and link
  // count may both have changed shape) and the fast-path summaries on the
  // resynced engine state.
  residual_ = residuals_of(history_);
  m.rebuilds.add();
  rebuild_fastpath();

  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::topology_applied;
  outcome.reverified = std::move(verdicts);
  return outcome;
}

std::vector<risk::AvailabilityCurve> AdmissionController::curves_against_residuals(
    const ResidualState& residuals, std::size_t k, std::span<const Demand> demands) {
  router_.warm(demands);
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const topology::Router::SweepGuard guard(router_);
  // Per-worker RouteResult scratch, reused across scenarios. The curves
  // come from the simulator's streamed build, so curves over pristine
  // residuals are bit-identical to RiskSimulator::availability_curves.
  std::vector<CacheAligned<topology::RouteResult>> scratch(
      fan_out_width(threads_, scenarios.size(), scenarios.size() * demands.size()));
  return risk::curves_from_sweep(scenarios, demands.size(), threads_,
                                 [&](std::size_t worker, std::size_t s) {
                                   topology::RouteResult& result = scratch[worker].value;
                                   router_.route_warmed_into(demands, residuals[k][s], result);
                                   return std::span<const double>(result.placed_per_demand);
                                 });
}

void AdmissionController::place(std::span<const TaggedDemand> demands,
                                std::vector<double>& residual) const {
  for (const TaggedDemand& tagged : demands) {
    const topology::PathList paths = router_.cached_paths(tagged.demand.src, tagged.demand.dst);
    NETENT_EXPECTS(paths.valid());
    (void)topology::water_fill_demand(tagged.demand.amount.value(), paths, residual, {});
  }
}

AdmissionController::ResidualState AdmissionController::residuals_of(
    const History& history) const {
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  const std::size_t realizations = config_.approval.realizations;
  const topology::SrlgIndex& index = engine_.simulator().srlg_index();
  const std::span<const double> base_capacity = router_.full_capacities();
  ResidualState state(realizations);
  for (auto& per_scenario : state) per_scenario.resize(scenario_count);
  fan_out(threads_, realizations * scenario_count, scenario_count * demand_count(history),
          [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            const std::size_t s = c % scenario_count;
            std::vector<double>& residual = state[k][s];
            residual = risk::scenario_capacities(index, base_capacity, scenarios[s]);
            place(history[k], residual);
          });
  return state;
}

void AdmissionController::commit(const History& batch) {
  const std::size_t scenario_count = engine_.scenarios().size();
  fan_out(threads_, config_.approval.realizations * scenario_count,
          scenario_count * demand_count(batch), [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            place(batch[k], residual_[k][c % scenario_count]);
          });
  for (std::size_t k = 0; k < batch.size(); ++k) {
    history_[k].insert(history_[k].end(), batch[k].begin(), batch[k].end());
  }
}

AdmissionController::History AdmissionController::prune(History& history,
                                                        const std::set<ContractId>& owners) {
  History removed(history.size());
  for (std::size_t k = 0; k < history.size(); ++k) {
    std::vector<TaggedDemand>& demands = history[k];
    std::size_t kept = 0;
    for (const TaggedDemand& tagged : demands) {
      if (owners.count(tagged.owner) != 0) {
        removed[k].push_back(tagged);
      } else {
        demands[kept++] = tagged;
      }
    }
    demands.resize(kept);
  }
  return removed;
}

std::size_t AdmissionController::demand_count(const History& history) {
  std::size_t count = 0;
  for (const auto& per_realization : history) count += per_realization.size();
  return count;
}

std::size_t AdmissionController::admitted_count() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return db_.size();
}

core::ContractDb AdmissionController::contracts_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return db_;
}

AdmissionController::ResidualState AdmissionController::residual_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residual_;
}

AdmissionController::ResidualState AdmissionController::rebuild_residuals_from_scratch() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_of(history_);
}

std::size_t AdmissionController::rebuild_placements() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return engine_.scenarios().size() * demand_count(history_);
}

void AdmissionController::rebuild_fastpath() {
  if (!config_.approval.fastpath.enabled) return;
  fast_.clear();
  fast_.reserve(config_.approval.realizations);
  for (std::size_t k = 0; k < config_.approval.realizations; ++k) {
    fast_.emplace_back(router_.topo(), engine_.scenarios());
    fast_.back().rebuild(residual_[k]);
  }
}

void AdmissionController::refresh_fastpath(const History& batch) {
  // A commit only subtracts capacity, and only on links of the committed
  // demands' candidate paths — re-summarize exactly those links per
  // realization (realizations draw different demand sets).
  for (std::size_t k = 0; k < fast_.size(); ++k) {
    fast_[k].refresh_links(candidate_links(router_, batch[k]), residual_[k]);
  }
}

bool AdmissionController::audit_one() {
  AuditRecord record;
  {
    const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
    if (audit_queue_.empty()) return false;
    record = std::move(audit_queue_.front());
    audit_queue_.erase(audit_queue_.begin());
  }
  // state_mutex_ excludes concurrent path-cache warms; the replay itself is
  // the read-only warmed sweep.
  const std::lock_guard<std::mutex> lock(state_mutex_);
  audit_record_locked(record);
  return true;
}

void AdmissionController::audit_record_locked(const AuditRecord& record) {
  ServiceMetrics& m = metrics();
  const std::span<const risk::FailureScenario> scenario_set = engine_.scenarios();
  // The fast tier warmed these pairs when it decided; warming again is a
  // no-op that keeps the replay's cache reads checked.
  router_.warm(record.demands);
  std::vector<double> exact(record.demands.size(), 0.0);
  {
    const topology::Router::SweepGuard guard(router_);
    // Scatter the snapshotted candidate-path residuals into a full-size
    // scratch vector per scenario; links off the candidate paths are never
    // read by the fill, so their value (0) is irrelevant.
    std::vector<double> scratch(router_.full_capacities().size(), 0.0);
    topology::RouteResult result;  // reused across scenarios
    for (std::size_t s = 0; s < scenario_set.size(); ++s) {
      for (std::size_t i = 0; i < record.links.size(); ++i) {
        scratch[record.links[i].value()] = record.residuals[s * record.links.size() + i];
      }
      router_.route_warmed_into(record.demands, scratch, result);
      const std::vector<double>& placed = result.placed_per_demand;
      for (std::size_t i = 0; i < record.demands.size(); ++i) {
        if (placed[i] + 1e-9 >= record.demands[i].amount.value()) {
          exact[i] += scenario_set[s].probability;
        }
      }
    }
  }
  for (std::size_t i = 0; i < record.demands.size(); ++i) {
    ++fast_stats_.audited;
    m.fastpath_audited.add();
    if (record.bounds[i] > exact[i] + 1e-9) {
      ++fast_stats_.violations;
      m.fastpath_audit_violations.add();
    }
  }
}

std::size_t AdmissionController::audit_fastpath() {
  std::size_t drained = 0;
  while (audit_one()) ++drained;
  return drained;
}

AdmissionController::FastPathStats AdmissionController::fastpath_stats() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return fast_stats_;
}

std::span<const risk::FailureScenario> AdmissionController::scenarios() const {
  return engine_.scenarios();
}

std::vector<std::vector<double>> AdmissionController::fastpath_headroom_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<std::vector<double>> snapshot;
  snapshot.reserve(fast_.size());
  for (const risk::FastEstimator& estimator : fast_) {
    snapshot.emplace_back(estimator.headroom().begin(), estimator.headroom().end());
  }
  return snapshot;
}

}  // namespace netent::service
