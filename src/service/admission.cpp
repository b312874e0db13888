#include "service/admission.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
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
  /// Fast-tier choices: realizations whose bounds all cleared the SLO, the
  /// demands they cleared, and realizations that fell back to the sweep.
  obs::Counter& fastpath_hits = reg.counter("risk.fastpath.hits");
  obs::Counter& fastpath_demands_cleared = reg.counter("risk.fastpath.demands_cleared");
  obs::Counter& fastpath_fallbacks = reg.counter("risk.fastpath.fallbacks");
  obs::Counter& fastpath_audited = reg.counter("risk.fastpath.audited");
  obs::Counter& fastpath_audit_violations = reg.counter("risk.fastpath.audit_violations");
  /// Audits a window ran itself because the queue was past kAuditBacklog.
  obs::Counter& fastpath_audits_inline = reg.counter("risk.fastpath.audits_inline");
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

/// Request-shape validation, Expected-style (common/expected.h taxonomy):
/// every failure is invalid_argument naming the offending hose field, so a
/// spec-compiled or hand-built request fails identically.
Expected<void> validate_hoses(const AdmissionRequest& request, NpgId npg,
                              std::size_t region_count) {
  if (request.hoses.empty()) {
    return Error{ErrorCode::invalid_argument, "request has no hoses"};
  }
  double total = 0.0;
  for (std::size_t h = 0; h < request.hoses.size(); ++h) {
    const HoseRequest& hose = request.hoses[h];
    const std::string field = "hoses[" + std::to_string(h) + "]";
    if (hose.npg != npg) {
      return Error{ErrorCode::invalid_argument, field + ".npg: differs from the request's NPG"};
    }
    if (hose.region.value() >= region_count) {
      return Error{ErrorCode::invalid_argument,
                   field + ".region: region " + std::to_string(hose.region.value()) +
                       " out of range (topology has " + std::to_string(region_count) +
                       " regions)"};
    }
    if (static_cast<std::size_t>(hose.qos) >= kQosClassCount) {
      return Error{ErrorCode::invalid_argument,
                   field + ".qos: class " + std::to_string(static_cast<int>(hose.qos)) +
                       " out of range (" + std::to_string(kQosClassCount) + " classes)"};
    }
    if (hose.direction != hose::Direction::egress && hose.direction != hose::Direction::ingress) {
      return Error{ErrorCode::invalid_argument,
                   field + ".direction: " + std::to_string(static_cast<int>(hose.direction)) +
                       " is neither egress nor ingress"};
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
}

const Demand& demand_of(const Demand& demand) { return demand; }
template <class Tagged>
const Demand& demand_of(const Tagged& tagged) {
  return tagged.demand;
}

/// The sorted, deduplicated links on the cached candidate paths of
/// `demands` (Demands, or elements carrying one in `.demand`): every link a
/// water-fill of those demands can read or write.
template <class Demands>
std::vector<LinkId> candidate_links(const topology::Router& router, const Demands& demands) {
  std::vector<LinkId> links;
  for (const auto& element : demands) {
    const Demand& demand = demand_of(element);
    const topology::PathList paths = router.cached_paths(demand.src, demand.dst);
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
      residuals_(router_, engine_.simulator(), config_.approval.realizations, threads_),
      rng_(config_.seed) {
  NETENT_EXPECTS(config_.batch_window_seconds >= 0.0);
  NETENT_EXPECTS(config_.admit_min_fraction >= 0.0 && config_.admit_min_fraction <= 1.0);
  config_.approval.exec.threads = threads_;  // config() reflects the resolution
  if (config_.approval.fastpath.enabled) fast_.emplace(router_.topo(), engine_.scenarios());
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

struct AdmissionController::Window {
  /// An admit or resize under evaluation.
  struct Entry {
    std::size_t index = 0;  ///< window position
    bool is_resize = false;
    ContractId id = 0;  ///< resize: the existing contract
    NpgId npg;
    std::string name;
    const std::vector<HoseRequest>* hoses = nullptr;
    std::size_t hose_begin = 0;  ///< offset into the joint hose list
    bool accepted = false;
  };
  /// A drawn demand, NPG-tagged; accepted ones become the committed batch.
  struct Drawn {
    Demand demand;
    std::uint32_t npg = 0;
  };

  explicit Window(std::vector<Pending>& requests) : pending(requests), outcomes(requests.size()) {}

  std::vector<Pending>& pending;
  std::vector<AdmissionOutcome> outcomes;
  std::vector<Entry> entries;
  std::set<ContractId> released;
  /// What the evaluation removes from the history: releases and resize
  /// targets. When non-empty, `edit` holds the history without them.
  std::set<ContractId> removed;
  std::optional<ResidualHistory::Edit> edit;
  std::vector<HoseRequest> hoses;  ///< the joint hose list, in entry order
  std::vector<std::vector<Drawn>> drawn;  ///< [realization]
  std::vector<HoseApprovalResult> results;  ///< per joint hose
};

std::vector<AdmissionOutcome> AdmissionController::evaluate_window(std::vector<Pending>& pending) {
  ++window_seq_;
  Window window(pending);
  // Topology windows: mutation batches are serialized ahead of the window's
  // contract requests (in submission order among themselves), so the admits
  // and resizes evaluate against the evolved network.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].request.kind == RequestKind::topology) {
      window.outcomes[i] = evaluate_topology_window(pending[i].request);
    }
  }
  classify(window);
  assess(window);
  commit(window);
  return std::move(window.outcomes);
}

void AdmissionController::classify(Window& window) {
  const std::size_t region_count = router_.topo().region_count();
  std::set<ContractId> touched_ids;     ///< resize/release targets seen this window
  std::set<std::uint32_t> window_npgs;  ///< NPGs claimed by this window's admits
  const auto fail = [&](std::size_t i, const Error& error) {
    window.outcomes[i] = failed_outcome(error.code, error.message);
  };
  for (std::size_t i = 0; i < window.pending.size(); ++i) {
    const AdmissionRequest& request = window.pending[i].request;
    switch (request.kind) {
      case RequestKind::admit: {
        const core::EntitlementContract* held = db_.find(request.npg);
        const bool live = held != nullptr && window.released.count(held->id) == 0;
        if (live || window_npgs.count(request.npg.value()) != 0) {
          fail(i, {ErrorCode::invalid_argument, "NPG already holds a live contract (use resize)"});
          break;
        }
        if (auto ok = validate_hoses(request, request.npg, region_count); !ok) {
          fail(i, ok.error());
          break;
        }
        window_npgs.insert(request.npg.value());
        window.entries.push_back({.index = i, .npg = request.npg, .name = request.npg_name,
                                  .hoses = &request.hoses});
        break;
      }
      case RequestKind::resize:
      case RequestKind::release: {
        const core::EntitlementContract* existing = db_.find_by_id(request.contract);
        if (existing == nullptr) {
          fail(i,
               {ErrorCode::not_found, "unknown contract id " + std::to_string(request.contract)});
          break;
        }
        if (!touched_ids.insert(request.contract).second) {
          fail(i, {ErrorCode::invalid_argument,
                   "contract already targeted by an earlier request in this window"});
          break;
        }
        if (request.kind == RequestKind::release) {
          // Committed by commit(); a throwing window fails every outcome.
          window.released.insert(request.contract);
          window.outcomes[i].status = AdmissionStatus::released;
          window.outcomes[i].contract = request.contract;
          break;
        }
        if (auto ok = validate_hoses(request, existing->npg, region_count); !ok) {
          fail(i, ok.error());
          break;
        }
        window.entries.push_back({.index = i, .is_resize = true, .id = request.contract,
                                  .npg = existing->npg, .name = existing->npg_name,
                                  .hoses = &request.hoses});
        break;
      }
      case RequestKind::topology:
        break;  // evaluated ahead of the window
    }
  }
}

void AdmissionController::assess(Window& window) {
  ServiceMetrics& m = metrics();
  const std::size_t realizations = config_.approval.realizations;
  // Releases (and resize targets) free their reservations for the
  // evaluation: the window stages the history without their demands. A
  // rejected resize keeps its old grant (restored by commit()), so the
  // evaluation is optimistic about resizes that end up rejected — the trade
  // for keeping the window joint.
  window.removed = window.released;
  for (const Window::Entry& entry : window.entries) {
    if (entry.is_resize) window.removed.insert(entry.id);
  }
  if (!window.removed.empty()) {
    History edited = residuals_.history();
    const std::vector<std::size_t> same = ResidualHistory::prune(edited, window.removed);
    window.edit.emplace(residuals_.stage(std::move(edited), same));
    m.rebuilds.add();
  }

  for (Window::Entry& entry : window.entries) {
    entry.hose_begin = window.hoses.size();
    window.hoses.insert(window.hoses.end(), entry.hoses->begin(), entry.hoses->end());
  }
  window.drawn.resize(realizations);
  if (window.hoses.empty()) return;

  // Tier selection for the window: the analytical tier serves pure-admit
  // windows, the streaming hot path, which evaluate against the committed
  // residual state. Windows with releases/resizes evaluate against their
  // staged edit and always go exact.
  const bool fast_eligible = fast_.has_value() && !window.edit.has_value();

  // GEN_DEMAND first, then each realization's assessment in ascending
  // order: the assessments consume no RNG, so the stream is the one
  // hose_approval draws.
  const approval::ApprovalEngine::RealizationPipes drawn_pipes =
      engine_.draw_realizations(window.hoses, {}, rng_);

  // Fast-path accounting is applied only once every realization assessed,
  // so a throwing window leaves the stats and the audit queue untouched.
  std::vector<std::vector<PipeApprovalResult>> assessed(realizations);
  FastPathStats window_fast;
  std::vector<AuditRecord> window_audits;
  for (std::size_t k = 0; k < realizations; ++k) {
    const std::span<const PipeRequest> pipes = drawn_pipes[k];
    if (pipes.empty()) continue;
    std::vector<Window::Drawn>& record = window.drawn[k];
    for (const std::size_t p : engine_.placement_order(pipes)) {
      record.push_back({Demand{pipes[p].src, pipes[p].dst, pipes[p].rate}, pipes[p].npg.value()});
    }
    const ResidualHistory::Residuals& residuals =
        window.edit ? window.edit->residuals(k) : residuals_.residuals(k);
    std::vector<double> bounds;  // tier 1's, when it cleared every demand
    assessed[k] = engine_.pipe_approval_with(pipes, [&](std::span<const Demand> demands) {
      if (!fast_eligible) return curves_against_residuals(residuals, demands);
      bounds = fast_bounds(residuals, demands);
      if (bounds.empty()) {
        ++window_fast.fallbacks;
        m.fastpath_fallbacks.add();
        return curves_against_residuals(residuals, demands);
      }
      ++window_fast.hits;
      m.fastpath_hits.add();
      m.fastpath_demands_cleared.add(demands.size());
      // One breakpoint per demand: the full rate at the bound's mass. It is
      // at or below the exact curve (a fill never places more than the
      // rate), and approves the full rate since the bound clears the SLO.
      std::vector<risk::AvailabilityCurve> curves;
      curves.reserve(demands.size());
      for (std::size_t i = 0; i < demands.size(); ++i) {
        curves.emplace_back(
            std::vector<std::pair<double, double>>{{demands[i].amount.value(), bounds[i]}});
      }
      return curves;
    });
    if (bounds.empty() || !config_.approval.fastpath.audit) continue;
    // Queue the deferred exact audit with a copy of the state the bounds
    // summarize — but only the links the audit replay's water-fill can read:
    // the demands' candidate paths, warmed by the fast tier.
    AuditRecord audit;
    audit.demands.reserve(record.size());
    for (const Window::Drawn& d : record) audit.demands.push_back(d.demand);
    audit.links = candidate_links(router_, record);
    const std::size_t scenario_count = engine_.scenarios().size();
    audit.residuals.resize(scenario_count * audit.links.size());
    double* copy = audit.residuals.data();
    for (std::size_t s = 0; s < scenario_count; ++s) {
      for (const LinkId link : audit.links) *copy++ = residuals.at(s, link.value());
    }
    audit.bounds = std::move(bounds);
    window_audits.push_back(std::move(audit));
  }
  window.results = engine_.aggregate_realizations(window.hoses, drawn_pipes, assessed);
  fast_stats_.hits += window_fast.hits;
  fast_stats_.fallbacks += window_fast.fallbacks;
  if (window_audits.empty()) return;
  // Past the backlog cap the oldest records are audited here, under the
  // state lock this window holds, so an undrained queue stays bounded.
  std::vector<AuditRecord> overflow;
  {
    const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
    std::move(window_audits.begin(), window_audits.end(), std::back_inserter(audit_queue_));
    while (audit_queue_.size() > kAuditBacklog) {
      overflow.push_back(std::move(audit_queue_.front()));
      audit_queue_.pop_front();
    }
  }
  for (const AuditRecord& record : overflow) audit_record_locked(record);
  m.fastpath_audits_inline.add(overflow.size());
}

void AdmissionController::commit(Window& window) {
  ServiceMetrics& m = metrics();
  std::map<std::uint32_t, ContractId> accepted;  // npg -> contract
  for (Window::Entry& entry : window.entries) {
    const std::span<const HoseApprovalResult> slice =
        std::span<const HoseApprovalResult>(window.results)
            .subspan(entry.hose_begin, entry.hoses->size());
    double requested = 0.0;
    double approved = 0.0;
    for (const HoseApprovalResult& result : slice) {
      requested += result.request.rate.value();
      approved += result.approved.value();
    }
    const double fraction = requested > 0.0 ? approved / requested : 0.0;
    AdmissionOutcome& outcome = window.outcomes[entry.index];
    outcome.approvals.assign(slice.begin(), slice.end());
    if (approved > kEps && fraction + 1e-12 >= config_.admit_min_fraction) {
      entry.accepted = true;
      if (!entry.is_resize) entry.id = next_contract_id_++;
      accepted[entry.npg.value()] = entry.id;
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

  History batch(config_.approval.realizations);
  std::size_t committed = 0;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    for (const Window::Drawn& d : window.drawn[k]) {
      const auto it = accepted.find(d.npg);
      if (it == accepted.end()) continue;
      batch[k].push_back({d.demand, it->second});
      ++committed;
    }
  }

  std::set<ContractId> removed = window.released;
  for (const Window::Entry& entry : window.entries) {
    if (entry.is_resize && entry.accepted) removed.insert(entry.id);
  }
  if (!removed.empty()) {
    // Releases and accepted resizes edit the middle of the history; the
    // window's batch is appended on top of the edited one.
    if (removed == window.removed) {
      window.edit->commit();  // the evaluation staged exactly this edit
    } else {
      // A rejected resize keeps its old grant, which the evaluation dropped:
      // drop the evaluation's edit and stage the one the verdicts made.
      window.edit.reset();
      History edited = residuals_.history();
      const std::vector<std::size_t> same = ResidualHistory::prune(edited, removed);
      residuals_.stage(std::move(edited), same).commit();
      m.rebuilds.add();
    }
    if (committed > 0) residuals_.append(batch);
  } else {
    window.edit.reset();  // every resize was rejected: the edit is dropped
    if (committed > 0) residuals_.append(batch);  // pure-admit hot path: append-only
  }
  m.committed_demands.add(committed);

  // Contract database updates.
  for (const ContractId id : window.released) db_.remove(id);
  for (const Window::Entry& entry : window.entries) {
    if (!entry.accepted) continue;
    core::EntitlementContract contract;
    contract.npg = entry.npg;
    contract.npg_name = entry.name;
    contract.slo_availability = config_.approval.slo_availability;
    contract.id = entry.id;
    for (const HoseApprovalResult& result : window.outcomes[entry.index].approvals) {
      contract.entitlements.push_back(core::Entitlement{
          result.request.npg, result.request.qos, result.request.region,
          result.request.direction, result.approved, config_.period});
    }
    if (entry.is_resize) db_.remove(entry.id);
    db_.add(std::move(contract));
  }
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
    std::deque<AuditRecord> audits;
    {
      const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
      audits.swap(audit_queue_);
    }
    for (const AuditRecord& record : audits) audit_record_locked(record);
  }

  // --- Apply, then resync every topology-derived cache in dependency
  // order: router (path store + effective capacities), then approval engine
  // (scenarios + simulator), then the fast tier's estimator (which indexes
  // both links and scenarios), then the residuals.
  residuals_.network_changing();
  const std::uint64_t from_epoch = topo.epoch();
  for (const topology::Mutation& mut : request.mutations) (void)topo.apply(mut);
  m.mutations_applied.add(request.mutations.size());

  std::vector<std::pair<RegionId, RegionId>> changed_pairs;
  router_.resync_topology(&changed_pairs);
  const bool scenarios_changed = engine_.resync_topology();
  if (fast_) fast_.emplace(router_.topo(), engine_.scenarios());
  const std::set<ContractId> affected =
      affected_contracts(from_epoch, changed_pairs, scenarios_changed);

  // --- The residual state (the scenario set and link count may both have
  // changed shape) and its snapshots on the mutated network: one full
  // replay, which every re-verification edit restores from.
  residuals_.replay_all();
  m.rebuilds.add();

  // --- Re-verify each affected contract in ascending id order, applying
  // each verdict before judging the next (deterministic: no RNG, and every
  // step is bit-identical at any thread count).
  std::vector<ContractVerdict> verdicts;
  for (const ContractId id : affected) verdicts.push_back(reverify(id));

  AdmissionOutcome outcome;
  outcome.status = AdmissionStatus::topology_applied;
  outcome.reverified = std::move(verdicts);
  return outcome;
}

std::set<ContractId> AdmissionController::affected_contracts(
    std::uint64_t from_epoch, std::span<const std::pair<RegionId, RegionId>> changed_pairs,
    bool scenarios_changed) const {
  // A contract needs re-verification when the scenario set itself changed
  // (every availability curve's probability masses move) or any committed
  // demand routes over a changed pair / touches a changed link.
  std::set<ContractId> affected;
  if (scenarios_changed) {
    for (const core::EntitlementContract& contract : db_.contracts()) affected.insert(contract.id);
    return affected;
  }
  // The links whose effective capacity (or existence) the delta moved, both
  // directions.
  const topology::Topology& topo = *mutable_topo_;
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
  for (const auto& per_realization : residuals_.history()) {
    for (const ResidualHistory::TaggedDemand& tagged : per_realization) {
      if (affected.count(tagged.owner) != 0) continue;
      const std::vector<LinkId> links = candidate_links(router_, std::span(&tagged, 1));
      if (dirty_pairs.count({tagged.demand.src.value(), tagged.demand.dst.value()}) != 0 ||
          std::any_of(links.begin(), links.end(),
                      [&](LinkId link) { return link_changed[link.value()] != 0; })) {
        affected.insert(tagged.owner);
      }
    }
  }
  return affected;
}

ContractVerdict AdmissionController::reverify(ContractId id) {
  // A contract is judged by re-placing its committed demands LAST: against
  // residuals with every other in-force grant placed, the fraction of each
  // demand that still clears the SLO target bounds what the evolved network
  // supports. Those residuals, and the shrink / revoke edits, replay only
  // the history behind the contract's first demand.
  ServiceMetrics& m = metrics();
  const History& history = residuals_.history();
  History others = history;
  const std::vector<std::size_t> first = ResidualHistory::prune(others, {id});
  const std::vector<ResidualHistory::Residuals>& without = residuals_.probe(others, first);
  const double slo = config_.approval.slo_availability;
  double worst = 1.0;
  for (std::size_t k = 0; k < history.size(); ++k) {
    std::vector<Demand> demands;
    for (std::size_t i = first[k]; i < history[k].size(); ++i) {
      if (history[k][i].owner == id) demands.push_back(history[k][i].demand);
    }
    if (demands.empty()) continue;
    const std::vector<risk::AvailabilityCurve> curves =
        curves_against_residuals(without[k], demands);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const double amount = demands[i].amount.value();
      if (amount <= kEps) continue;
      const double supported = curves[i].bandwidth_at(slo).value();
      worst = std::min(worst, supported + 1e-9 >= amount ? 1.0 : supported / amount);
    }
  }
  m.contracts_reverified.add();
  if (worst >= 1.0) return ContractVerdict{id, VerdictKind::reaffirmed, 1.0};
  if (worst <= kEps) {
    residuals_.stage(std::move(others), first).commit();
    db_.remove(id);
    m.contracts_revoked.add();
    return ContractVerdict{id, VerdictKind::revoked, 0.0};
  }
  History shrunk = history;
  for (auto& per_realization : shrunk) {
    for (ResidualHistory::TaggedDemand& tagged : per_realization) {
      if (tagged.owner == id) tagged.demand.amount = Gbps(tagged.demand.amount.value() * worst);
    }
  }
  residuals_.stage(std::move(shrunk), first).commit();
  const core::EntitlementContract* existing = db_.find_by_id(id);
  NETENT_EXPECTS(existing != nullptr);
  core::EntitlementContract updated = *existing;
  for (core::Entitlement& entitlement : updated.entitlements) {
    entitlement.entitled_rate = Gbps(entitlement.entitled_rate.value() * worst);
  }
  db_.remove(id);
  db_.add(std::move(updated));
  m.contracts_shrunk.add();
  return ContractVerdict{id, VerdictKind::shrunk, worst};
}

std::vector<risk::AvailabilityCurve> AdmissionController::curves_against_residuals(
    const ResidualHistory::Residuals& residuals, std::span<const Demand> demands) {
  router_.warm(demands);
  const std::span<const risk::FailureScenario> scenarios = engine_.scenarios();
  const topology::Router::SweepGuard guard(router_);
  // A fill reads only the links of its candidate paths, so each scenario
  // routes over a per-worker copy of scenario 0's residuals holding its own
  // on those links. The scratch is reused across scenarios. The curves come
  // from the simulator's streamed build, so curves over pristine residuals
  // are bit-identical to RiskSimulator::availability_curves.
  const std::vector<LinkId> links = candidate_links(router_, demands);
  struct Scratch {
    std::vector<double> residual;
    topology::RouteResult result;
  };
  std::vector<CacheAligned<Scratch>> scratch(
      fan_out_width(threads_, scenarios.size(), scenarios.size() * demands.size()));
  for (CacheAligned<Scratch>& worker : scratch) worker.value.residual = residuals.base;
  return risk::curves_from_sweep(
      scenarios, demands.size(), threads_, [&](std::size_t worker, std::size_t s) {
        Scratch& own = scratch[worker].value;
        for (const LinkId link : links) own.residual[link.value()] = residuals.at(s, link.value());
        router_.route_warmed_into(demands, own.residual, own.result);
        return std::span<const double>(own.result.placed_per_demand);
      });
}

std::vector<double> AdmissionController::fast_bounds(const ResidualHistory::Residuals& residuals,
                                                     std::span<const Demand> demands) {
  router_.warm(demands);  // fast hits still commit and audit via cached paths
  std::vector<double> consumed(residuals.base.size(), 0.0);
  std::vector<double> bounds;
  bounds.reserve(demands.size());
  for (const Demand& demand : demands) {
    const topology::PathList paths = router_.cached_paths(demand.src, demand.dst);
    const double bound =
        paths.valid() ? fast_->bound(demand.amount.value(), paths, residuals, consumed) : 0.0;
    if (bound < config_.approval.slo_availability) return {};
    bounds.push_back(bound);
    risk::FastEstimator::charge(demand.amount.value(), paths, consumed);
  }
  return bounds;
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
  return residuals_.residuals();
}

AdmissionController::ResidualState AdmissionController::rebuild_residuals_from_scratch() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_.rebuild_from_scratch();
}

std::size_t AdmissionController::rebuild_placements() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::size_t demands = 0;
  for (const auto& per_realization : residuals_.history()) demands += per_realization.size();
  return engine_.scenarios().size() * demands;
}

AdmissionController::ReplayStats AdmissionController::replay_stats() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_.replay_stats();
}

std::vector<std::vector<std::size_t>> AdmissionController::snapshot_positions() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return residuals_.snapshot_positions();
}

bool AdmissionController::audit_one() {
  AuditRecord record;
  {
    const std::lock_guard<std::mutex> audit_lock(audit_mutex_);
    if (audit_queue_.empty()) return false;
    record = std::move(audit_queue_.front());
    audit_queue_.pop_front();
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

}  // namespace netent::service
