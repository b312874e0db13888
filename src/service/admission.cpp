#include "service/admission.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
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

/// The approval config the engine/negotiator are built with: the service's
/// resolved thread count pinned into the unified exec knob.
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

}  // namespace

AdmissionController::AdmissionController(const topology::Topology& topo, AdmissionConfig config)
    : config_(std::move(config)),
      threads_(config_.exec.resolve(config_.approval.sweep_threads())),
      router_(topo, config_.router_paths),
      engine_(router_, with_threads(config_.approval, threads_)),
      negotiator_(router_, with_threads(config_.approval, threads_), config_.negotiation),
      base_capacity_(router_.full_capacities()),  // view into router_; outlived by it
      rng_(config_.seed) {
  NETENT_EXPECTS(config_.batch_window_seconds >= 0.0);
  NETENT_EXPECTS(config_.admit_min_fraction >= 0.0 && config_.admit_min_fraction <= 1.0);
  config_.approval.exec.threads = threads_;  // config() reflects the resolution
  residual_ = residuals_of({});
  if (config_.approval.fastpath.enabled) {
    fast_.reserve(config_.approval.realizations);
    for (std::size_t k = 0; k < config_.approval.realizations; ++k) {
      fast_.emplace_back(router_.topo(), engine_.scenarios());
      fast_.back().rebuild(residual_[k]);
    }
  }
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
  const auto find_admitted = [&](ContractId id) -> const AdmittedEntry* {
    for (const AdmittedEntry& entry : admitted_) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
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
      if (hose.rate < Gbps(0)) {
        return Error{ErrorCode::invalid_argument, field + ".rate: must be >= 0"};
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
        const bool live = std::any_of(
            admitted_.begin(), admitted_.end(), [&](const AdmittedEntry& entry) {
              return entry.npg == request.npg && released_ids.count(entry.id) == 0;
            });
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
      case RequestKind::resize: {
        const AdmittedEntry* existing = find_admitted(request.contract);
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
        if (auto ok = validate_hoses(request, existing->npg); !ok) {
          fail(i, ok.error().code, ok.error().message);
          break;
        }
        EvalEntry entry;
        entry.index = i;
        entry.is_resize = true;
        entry.id = request.contract;
        entry.npg = existing->npg;
        entry.name = existing->name;
        entry.hoses = &request.hoses;
        entries.push_back(std::move(entry));
        break;
      }
      case RequestKind::release: {
        const AdmittedEntry* existing = find_admitted(request.contract);
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
        released_ids.insert(request.contract);
        break;  // outcome finalized in phase 4
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
  std::vector<Batch> eval_batches;
  ResidualState eval_scratch;
  const ResidualState* eval_residual = &residual_;
  if (!eval_removed.empty()) {
    eval_batches = batches_;
    for (Batch& batch : eval_batches) {
      for (auto& per_realization : batch.demands) {
        std::erase_if(per_realization, [&](const TaggedDemand& tagged) {
          return eval_removed.count(tagged.owner) != 0;
        });
      }
    }
    eval_scratch = residuals_of(eval_batches);
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
      for (const DrawnDemand& d : record) {
        audit.demands.push_back(d.demand);
        const topology::PathList paths = router_.cached_paths(d.demand.src, d.demand.dst);
        NETENT_EXPECTS(paths.valid());
        for (const topology::PathView path : paths) {
          audit.links.insert(audit.links.end(), path.links.begin(), path.links.end());
        }
      }
      std::sort(audit.links.begin(), audit.links.end());
      audit.links.erase(std::unique(audit.links.begin(), audit.links.end()), audit.links.end());
      audit.residuals.reserve(residual_[k].size() * audit.links.size());
      for (const std::vector<double>& scenario_residual : residual_[k]) {
        for (const LinkId link : audit.links) {
          audit.residuals.push_back(scenario_residual[link.value()]);
        }
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
  Batch batch;
  batch.demands.resize(realizations);
  std::size_t committed = 0;
  for (std::size_t k = 0; k < realizations; ++k) {
    for (const DrawnDemand& d : drawn[k]) {
      const auto it = accepted_ids.find(d.npg);
      if (it == accepted_ids.end()) continue;
      batch.demands[k].push_back({d.demand, it->second});
      ++committed;
    }
  }

  std::set<ContractId> final_removed = released_ids;
  for (const EvalEntry& entry : entries) {
    if (entry.is_resize && entry.accepted) final_removed.insert(entry.id);
  }
  if (!final_removed.empty() && final_removed == eval_removed) {
    // The evaluation already rebuilt the residuals of exactly this pruned
    // history; appending the window's batch on top runs the same
    // water_fill_demand sequence a full rebuild would.
    batches_ = std::move(eval_batches);
    residual_ = std::move(eval_scratch);
    if (committed > 0) {
      batches_.push_back(std::move(batch));
      commit_batch(batches_.back());
    }
    refresh_fastpath(nullptr);  // full summary rebuild with the residuals
  } else if (!final_removed.empty()) {
    // A rejected resize keeps its old grant, which the evaluation dropped:
    // releases / accepted resizes remove demands from the middle of the
    // placement history, where no cheaper exact delta exists (water-filling
    // is order-sensitive), so rebuild the residuals from the pruned history.
    eval_batches.clear();  // the rebuild below must not hold two histories
    for (Batch& existing : batches_) {
      for (auto& per_realization : existing.demands) {
        std::erase_if(per_realization, [&](const TaggedDemand& tagged) {
          return final_removed.count(tagged.owner) != 0;
        });
      }
    }
    if (committed > 0) batches_.push_back(std::move(batch));
    residual_ = residuals_of(batches_);
    m.rebuilds.add();
    refresh_fastpath(nullptr);  // full summary rebuild with the residuals
  } else if (committed > 0) {
    // Pure-admit hot path: append-only, so the residuals advance with the
    // same water_fill_demand sequence a from-scratch replay would run.
    batches_.push_back(std::move(batch));
    commit_batch(batches_.back());
    refresh_fastpath(&batches_.back());  // only the batch's links moved
  }
  m.committed_demands.add(committed);

  // Contract database + registry updates.
  for (const ContractId id : released_ids) {
    db_.remove(id);
    std::erase_if(admitted_, [&](const AdmittedEntry& entry) { return entry.id == id; });
  }
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (window[i].request.kind == RequestKind::release &&
        released_ids.count(window[i].request.contract) != 0) {
      outcomes[i].status = AdmissionStatus::released;
      outcomes[i].contract = window[i].request.contract;
    }
  }
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
    if (entry.is_resize) {
      db_.remove(entry.id);
      for (AdmittedEntry& existing : admitted_) {
        if (existing.id == entry.id) existing.hoses = *entry.hoses;
      }
    } else {
      AdmittedEntry registered;
      registered.id = entry.id;
      registered.npg = entry.npg;
      registered.name = entry.name;
      registered.hoses = *entry.hoses;
      admitted_.push_back(std::move(registered));
    }
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
  // intact. Ids must name pre-batch entities — a mutation may not target a
  // link/SRLG the same batch creates (split into two windows instead).
  const std::size_t pre_links = topo.link_count();
  const std::size_t pre_regions = topo.region_count();
  const std::size_t pre_srlgs = topo.srlg_count();
  std::vector<char> sim_retired(pre_links, 0);
  std::vector<char> sim_drained(pre_regions, 0);
  std::vector<char> sim_struck(pre_srlgs, 0);
  for (std::size_t l = 0; l < pre_links; ++l) {
    sim_retired[l] = topo.link_retired(LinkId(static_cast<std::uint32_t>(l))) ? 1 : 0;
  }
  for (std::size_t r = 0; r < pre_regions; ++r) {
    sim_drained[r] = topo.region_drained(RegionId(static_cast<std::uint32_t>(r))) ? 1 : 0;
  }
  for (std::size_t g = 0; g < pre_srlgs; ++g) {
    sim_struck[g] = topo.srlg_struck(SrlgId(static_cast<std::uint32_t>(g))) ? 1 : 0;
  }
  std::string error;
  const auto invalid = [&](std::string message) {
    error = std::move(message);
    return false;
  };
  const auto validate = [&](const topology::Mutation& mut) {
    switch (mut.kind) {
      case topology::MutationKind::add_fiber: {
        if (mut.region_a.value() >= pre_regions || mut.region_b.value() >= pre_regions) {
          return invalid("add_fiber: region out of range");
        }
        if (mut.region_a == mut.region_b) return invalid("add_fiber: fiber endpoints equal");
        if (mut.capacity.value() <= 0.0) return invalid("add_fiber: capacity must be > 0");
        if (mut.conduit.has_value()) {
          if (mut.conduit->value() >= pre_links) {
            return invalid("add_fiber: conduit link must predate the batch");
          }
          if (sim_retired[mut.conduit->value()] != 0) {
            return invalid("add_fiber: conduit link is retired");
          }
        } else if (mut.mtbf_hours < 0.0 || mut.mttr_hours < 0.0) {
          return invalid("add_fiber: negative reliability");
        }
        return true;
      }
      case topology::MutationKind::retire_fiber: {
        if (mut.link.value() >= pre_links) {
          return invalid("retire_fiber: link must predate the batch");
        }
        if (sim_retired[mut.link.value()] != 0) return invalid("retire_fiber: already retired");
        sim_retired[mut.link.value()] = 1;
        sim_retired[topo.link(mut.link).reverse.value()] = 1;
        return true;
      }
      case topology::MutationKind::resize_fiber: {
        if (mut.link.value() >= pre_links) {
          return invalid("resize_fiber: link must predate the batch");
        }
        if (sim_retired[mut.link.value()] != 0) return invalid("resize_fiber: link is retired");
        if (mut.capacity.value() <= 0.0) return invalid("resize_fiber: capacity must be > 0");
        return true;
      }
      case topology::MutationKind::drain_region: {
        if (mut.region_a.value() >= pre_regions) return invalid("drain_region: out of range");
        if (sim_drained[mut.region_a.value()] != 0) return invalid("drain_region: already drained");
        sim_drained[mut.region_a.value()] = 1;
        return true;
      }
      case topology::MutationKind::undrain_region: {
        if (mut.region_a.value() >= pre_regions) return invalid("undrain_region: out of range");
        if (sim_drained[mut.region_a.value()] == 0) return invalid("undrain_region: not drained");
        sim_drained[mut.region_a.value()] = 0;
        return true;
      }
      case topology::MutationKind::strike_srlgs:
      case topology::MutationKind::repair_srlgs: {
        if (mut.srlgs.empty()) return invalid("strike/repair: empty SRLG list");
        std::vector<SrlgId> unique(mut.srlgs);
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
        const bool striking = mut.kind == topology::MutationKind::strike_srlgs;
        for (const SrlgId srlg : unique) {
          if (srlg.value() >= pre_srlgs) return invalid("strike/repair: SRLG must predate the batch");
          if ((sim_struck[srlg.value()] != 0) == striking) {
            return invalid(striking ? "strike_srlgs: already struck"
                                    : "repair_srlgs: not struck");
          }
        }
        for (const SrlgId srlg : unique) sim_struck[srlg.value()] = striking ? 1 : 0;
        return true;
      }
    }
    return invalid("unknown mutation kind");
  };
  for (const topology::Mutation& mut : request.mutations) {
    if (!validate(mut)) {
      return failed_outcome(ErrorCode::invalid_argument, "topology mutation rejected: " + error);
    }
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
  // order: router (path store + effective capacities), approval engine
  // (scenarios + simulator + pristine fast summaries), and finally this
  // controller's base-capacity view.
  const std::uint64_t from_epoch = topo.epoch();
  for (const topology::Mutation& mut : request.mutations) (void)topo.apply(mut);
  m.mutations_applied.add(request.mutations.size());

  topology::TopologyResyncStats resync_stats;
  std::vector<std::pair<RegionId, RegionId>> changed_pairs;
  router_.resync_topology(&resync_stats, &changed_pairs);
  const bool scenarios_changed = engine_.resync_topology();
  base_capacity_ = router_.full_capacities();  // may have grown / moved

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
  const auto contract_affected = [&](ContractId id) {
    if (scenarios_changed) return true;
    for (const Batch& batch : batches_) {
      for (const auto& per_realization : batch.demands) {
        for (const TaggedDemand& tagged : per_realization) {
          if (tagged.owner != id) continue;
          if (dirty_pairs.count({tagged.demand.src.value(), tagged.demand.dst.value()}) != 0) {
            return true;
          }
          const topology::PathList paths =
              router_.cached_paths(tagged.demand.src, tagged.demand.dst);
          NETENT_EXPECTS(paths.valid());
          for (const topology::PathView path : paths) {
            for (const LinkId link : path.links) {
              if (link_changed[link.value()] != 0) return true;
            }
          }
        }
      }
    }
    return false;
  };
  std::vector<ContractId> affected;
  for (const AdmittedEntry& entry : admitted_) {
    if (contract_affected(entry.id)) affected.push_back(entry.id);
  }
  std::sort(affected.begin(), affected.end());

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
    std::vector<Batch> others = batches_;
    for (Batch& batch : others) {
      for (auto& per_realization : batch.demands) {
        std::erase_if(per_realization,
                      [&](const TaggedDemand& tagged) { return tagged.owner == id; });
      }
    }
    const ResidualState minus_c = residuals_of(others);
    double worst = 1.0;
    for (std::size_t k = 0; k < realizations; ++k) {
      std::vector<Demand> demands;
      for (const Batch& batch : batches_) {
        for (const TaggedDemand& tagged : batch.demands[k]) {
          if (tagged.owner == id) demands.push_back(tagged.demand);
        }
      }
      if (demands.empty()) continue;
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
      for (Batch& batch : batches_) {
        for (auto& per_realization : batch.demands) {
          std::erase_if(per_realization,
                        [&](const TaggedDemand& tagged) { return tagged.owner == id; });
        }
      }
      db_.remove(id);
      std::erase_if(admitted_, [&](const AdmittedEntry& entry) { return entry.id == id; });
      m.contracts_revoked.add();
    } else {
      verdict.kind = VerdictKind::shrunk;
      verdict.fraction = worst;
      for (Batch& batch : batches_) {
        for (auto& per_realization : batch.demands) {
          for (TaggedDemand& tagged : per_realization) {
            if (tagged.owner == id) {
              tagged.demand.amount = Gbps(tagged.demand.amount.value() * worst);
            }
          }
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
  residual_ = residuals_of(batches_);
  m.rebuilds.add();
  if (config_.approval.fastpath.enabled) {
    fast_.clear();
    fast_.reserve(realizations);
    for (std::size_t k = 0; k < realizations; ++k) {
      fast_.emplace_back(router_.topo(), engine_.scenarios());
      fast_.back().rebuild(residual_[k]);
    }
  }

  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::topology_applied;
  outcome.reverified = std::move(verdicts);
  return outcome;
}

std::vector<risk::AvailabilityCurve> AdmissionController::curves_against_residuals(
    const ResidualState& residuals, std::size_t k, std::span<const Demand> demands) {
  router_.warm(demands);
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  std::vector<std::vector<double>> placed(scenario_count);
  {
    const topology::Router::SweepGuard guard(router_);
    const std::size_t placements = scenario_count * demands.size();
    // Per-worker RouteResult scratch (reused across scenarios) keeps the
    // fan-out's steady state allocation-free apart from the per-scenario
    // output vectors.
    std::vector<CacheAligned<topology::RouteResult>> scratch(
        fan_out_width(threads_, scenario_count, placements));
    fan_out(threads_, scenario_count, placements, [&](std::size_t worker, std::size_t s) {
      topology::RouteResult& result = scratch[worker].value;
      router_.route_warmed_into(demands, residuals[k][s], result);
      placed[s].assign(result.placed_per_demand.begin(), result.placed_per_demand.end());
    });
  }
  // Scenario-order merge — the same construction availability_curves uses,
  // so curves over pristine residuals are bit-identical to the simulator's.
  std::vector<std::vector<std::pair<double, double>>> outcomes(demands.size());
  for (auto& per_demand : outcomes) per_demand.reserve(scenario_count);
  for (std::size_t s = 0; s < scenario_count; ++s) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      outcomes[i].emplace_back(placed[s][i], scenarios[s].probability);
    }
  }
  std::vector<risk::AvailabilityCurve> curves;
  curves.reserve(demands.size());
  for (auto& per_demand : outcomes) curves.emplace_back(std::move(per_demand));
  return curves;
}

void AdmissionController::place_tagged(std::span<const TaggedDemand> demands,
                                       std::vector<double>& residual) const {
  for (const TaggedDemand& tagged : demands) {
    const topology::PathList paths = router_.cached_paths(tagged.demand.src, tagged.demand.dst);
    NETENT_EXPECTS(paths.valid());
    (void)topology::water_fill_demand(tagged.demand.amount.value(), paths, residual, {});
  }
}

AdmissionController::ResidualState AdmissionController::residuals_of(
    std::span<const Batch> batches) const {
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  const std::size_t realizations = config_.approval.realizations;
  const topology::SrlgIndex& index = engine_.simulator().srlg_index();
  ResidualState state(realizations);
  for (auto& per_scenario : state) per_scenario.resize(scenario_count);
  fan_out(threads_, realizations * scenario_count, scenario_count * demand_count(batches),
          [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            const std::size_t s = c % scenario_count;
            std::vector<double>& residual = state[k][s];
            residual = risk::scenario_capacities(index, base_capacity_, scenarios[s]);
            for (const Batch& batch : batches) place_tagged(batch.demands[k], residual);
          });
  return state;
}

std::size_t AdmissionController::demand_count(std::span<const Batch> batches) {
  std::size_t count = 0;
  for (const Batch& batch : batches) {
    for (const auto& per_realization : batch.demands) count += per_realization.size();
  }
  return count;
}

void AdmissionController::commit_batch(const Batch& batch) {
  const std::size_t scenario_count = engine_.scenarios().size();
  fan_out(threads_, config_.approval.realizations * scenario_count,
          scenario_count * demand_count({&batch, 1}),
          [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            const std::size_t s = c % scenario_count;
            place_tagged(batch.demands[k], residual_[k][s]);
          });
}

std::size_t AdmissionController::admitted_count() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return admitted_.size();
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
  return residuals_of(batches_);
}

std::size_t AdmissionController::rebuild_placements() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return engine_.scenarios().size() * demand_count(batches_);
}

void AdmissionController::refresh_fastpath(const Batch* dirty_batch) {
  if (fast_.empty()) return;
  if (dirty_batch == nullptr) {
    for (std::size_t k = 0; k < fast_.size(); ++k) fast_[k].rebuild(residual_[k]);
    return;
  }
  // A commit only subtracts capacity, and only on links of the committed
  // demands' candidate paths — re-summarize exactly those links per
  // realization (realizations draw different demand sets).
  std::vector<LinkId> dirty;
  for (std::size_t k = 0; k < fast_.size(); ++k) {
    dirty.clear();
    for (const TaggedDemand& tagged : dirty_batch->demands[k]) {
      const topology::PathList paths =
          router_.cached_paths(tagged.demand.src, tagged.demand.dst);
      NETENT_EXPECTS(paths.valid());
      for (const topology::PathView path : paths) {
        dirty.insert(dirty.end(), path.links.begin(), path.links.end());
      }
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    fast_[k].refresh_links(dirty, residual_[k]);
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
    std::vector<double> scratch(base_capacity_.size(), 0.0);
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
