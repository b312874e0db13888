#include "service/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "approval/approval.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/contract_db.h"
#include "obs/metrics.h"
#include "risk/fast_estimator.h"
#include "topology/generator.h"

namespace netent::service {
namespace {

using hose::Direction;
using hose::HoseRequest;

HoseRequest make_hose(std::uint32_t npg, QosClass qos, std::uint32_t region, double gbps,
                      Direction direction = Direction::egress) {
  HoseRequest hose;
  hose.npg = NpgId(npg);
  hose.qos = qos;
  hose.region = RegionId(region);
  hose.direction = direction;
  hose.rate = Gbps(gbps);
  return hose;
}

/// Matched egress+ingress hoses: the realization drawing needs mass on both
/// sides of the (NPG, QoS) hose space to generate pipes — a lone egress hose
/// with no ingress anywhere is unconstrained and passes through.
std::vector<HoseRequest> hose_pair(std::uint32_t npg, QosClass qos, std::uint32_t src,
                                   std::uint32_t dst, double gbps) {
  return {make_hose(npg, qos, src, gbps, Direction::egress),
          make_hose(npg, qos, dst, gbps, Direction::ingress)};
}

AdmissionConfig small_config(std::uint64_t seed = 7) {
  AdmissionConfig config;
  config.approval.realizations = 3;
  config.approval.slo_availability = 0.999;
  config.approval.scenarios.max_simultaneous = 1;
  config.seed = seed;
  config.background = false;  // deterministic windows driven by flush()
  config.attach_counter_proposals = false;
  return config;
}

/// One window of requests submitted before a flush() — the manual-mode path
/// the deterministic tests drive.
std::vector<AdmissionOutcome> run_window(AdmissionController& controller,
                                         std::vector<AdmissionRequest> requests) {
  std::vector<std::future<AdmissionOutcome>> futures;
  futures.reserve(requests.size());
  for (AdmissionRequest& request : requests) futures.push_back(controller.submit(std::move(request)));
  controller.flush();
  std::vector<AdmissionOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (auto& future : futures) outcomes.push_back(future.get());
  return outcomes;
}

AdmissionRequest admit_request(std::uint32_t npg, std::vector<HoseRequest> hoses) {
  AdmissionRequest request;
  request.kind = RequestKind::admit;
  request.npg = NpgId(npg);
  request.npg_name = "npg" + std::to_string(npg);
  request.hoses = std::move(hoses);
  return request;
}

// A window of admissions against an empty service must approve bit-identically
// to one ApprovalEngine::hose_approval call on the concatenated hose set: the
// realization drawing shares the RNG stream and empty-state residuals are the
// scenario capacities themselves.
TEST(AdmissionService, SingleWindowMatchesBatchApproval) {
  Rng topo_rng(3);
  topology::GeneratorConfig topo_config;
  topo_config.region_count = 6;
  topo_config.base_capacity = Gbps(300);
  const topology::Topology topo = topology::generate_backbone(topo_config, topo_rng);
  const AdmissionConfig config = small_config(41);

  AdmissionController controller(topo, config);
  std::vector<AdmissionRequest> window;
  window.push_back(admit_request(1, hose_pair(1, QosClass::c1_low, 0, 2, 90.0)));
  window.push_back(admit_request(2, hose_pair(2, QosClass::c2_low, 1, 4, 150.0)));
  window.push_back(admit_request(3, hose_pair(3, QosClass::c3_low, 3, 0, 400.0)));
  const auto outcomes = run_window(controller, std::move(window));

  // Reference: one engine, one joint call, same seed and thread resolution.
  topology::Router router(topo, config.router_paths);
  approval::ApprovalConfig reference_config = config.approval;
  reference_config.exec.threads = controller.config().approval.exec.threads;
  const approval::ApprovalEngine engine(router, reference_config);
  // The same hoses in the same concatenation (= submission) order.
  std::vector<HoseRequest> all_hoses;
  for (const auto& hoses : {hose_pair(1, QosClass::c1_low, 0, 2, 90.0),
                            hose_pair(2, QosClass::c2_low, 1, 4, 150.0),
                            hose_pair(3, QosClass::c3_low, 3, 0, 400.0)}) {
    all_hoses.insert(all_hoses.end(), hoses.begin(), hoses.end());
  }
  Rng reference_rng(config.seed);
  const auto reference = engine.hose_approval(all_hoses, reference_rng);
  ASSERT_EQ(reference.size(), all_hoses.size());

  std::vector<approval::HoseApprovalResult> streamed;
  for (const AdmissionOutcome& outcome : outcomes) {
    streamed.insert(streamed.end(), outcome.approvals.begin(), outcome.approvals.end());
  }
  ASSERT_EQ(streamed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(streamed[i].approved.value(), reference[i].approved.value()) << "hose " << i;
  }
}

/// Field-wise fingerprint of the final contract database, full precision:
/// two runs agree iff every contract (id, NPG, name, SLO) and every
/// entitlement row (all fields, exact rates) agree in order.
std::string fingerprint(const core::ContractDb& db) {
  std::ostringstream out;
  out.precision(17);
  for (const core::EntitlementContract& contract : db.contracts()) {
    out << contract.id << '|' << contract.npg.value() << '|' << contract.npg_name << '|'
        << contract.slo_availability << '\n';
    for (const core::Entitlement& e : contract.entitlements) {
      out << ' ' << e.npg.value() << ',' << static_cast<int>(e.qos) << ',' << e.region.value()
          << ',' << static_cast<int>(e.direction) << ',' << e.entitled_rate.value() << ','
          << e.period.start_seconds << ',' << e.period.end_seconds << '\n';
    }
  }
  return out.str();
}

/// Everything a churn run decided: per-request verdicts and approved rates,
/// the final risk state and contract database — the full surface that must
/// be bit-identical between the exact-only and two-tier configurations and
/// across thread counts. Fast-path accounting differs between the tiers by
/// design, so equality leaves it out; callers compare it where it must match.
struct ChurnResult {
  AdmissionController::ResidualState residuals;
  std::vector<AdmissionStatus> statuses;
  std::vector<double> approved;
  std::string contracts;
  AdmissionController::FastPathStats fast;
  std::size_t max_rebuild_placements = 0;  ///< largest rebuild seen along the way

  bool operator==(const ChurnResult& other) const {
    return residuals == other.residuals && statuses == other.statuses &&
           approved == other.approved && contracts == other.contracts;
  }
};

struct ChurnParams {
  std::optional<std::size_t> threads;
  bool fastpath = false;
  std::size_t total_requests = 24;
};

/// Randomized churn driver: mixed admit / resize / release in multi-request
/// windows, the same deterministic stream for every configuration (driver
/// randomness depends on outcomes only through `live`, and outcomes are
/// identical across the configurations under comparison). Checks the
/// incremental residual state against a from-scratch replay after every
/// window.
ChurnResult churn(const topology::Topology& topo, const ChurnParams& params) {
  AdmissionConfig config = small_config(99);
  config.exec.threads = params.threads;
  config.approval.fastpath.enabled = params.fastpath;
  // figure6 fibers are ~1.2e-3 unavailable, so the first-path union bound
  // tops out near 0.9988: at the default 0.999 SLO the fast tier would
  // always fall back. 0.995 (same for every config — equivalence is judged
  // at one SLO) lets clean admits fast-path while saturated windows and all
  // release/resize windows still go exact.
  config.approval.slo_availability = 0.995;
  // Double failures too: 37 scenarios, so the rebuilds of a long stream
  // outgrow the fan-out cutoff.
  config.approval.scenarios.max_simultaneous = 2;
  AdmissionController controller(topo, config);

  const auto regions = static_cast<std::uint32_t>(topo.region_count());
  ChurnResult result;
  Rng driver(4242);
  std::vector<ContractId> live;
  std::uint32_t next_npg = 1;
  std::size_t submitted = 0;
  std::size_t window_index = 0;
  while (submitted < params.total_requests) {
    std::vector<AdmissionRequest> window;
    std::vector<ContractId> touched;  // one request per contract per window
    const std::size_t requests = 1 + driver.uniform_int(4);
    for (std::size_t r = 0; r < requests; ++r) {
      const double coin = driver.uniform(0.0, 1.0);
      if (live.size() < 6 || touched.size() >= live.size() || coin < 0.45) {
        const std::uint32_t npg = next_npg++;
        const auto src = static_cast<std::uint32_t>(driver.uniform_int(regions));
        const auto dst =
            (src + 1 + static_cast<std::uint32_t>(driver.uniform_int(regions - 1))) % regions;
        window.push_back(admit_request(
            npg, hose_pair(npg, static_cast<QosClass>(driver.uniform_int(kQosClassCount)), src,
                           dst, driver.uniform(20.0, 120.0))));
        continue;
      }
      ContractId target = 0;
      do {
        target = live[driver.uniform_int(live.size())];
      } while (std::find(touched.begin(), touched.end(), target) != touched.end());
      touched.push_back(target);
      AdmissionRequest request;
      request.contract = target;
      if (coin < 0.8) {
        request.kind = RequestKind::release;
      } else {
        request.kind = RequestKind::resize;
        const core::ContractDb db = controller.contracts_snapshot();
        const auto* entry = db.find_by_id(target);
        EXPECT_NE(entry, nullptr);
        if (entry == nullptr) continue;
        const auto src = static_cast<std::uint32_t>(driver.uniform_int(regions));
        request.hoses = hose_pair(entry->npg.value(), QosClass::c2_low, src,
                                  (src + 2) % regions, driver.uniform(10.0, 80.0));
      }
      window.push_back(std::move(request));
    }
    submitted += window.size();
    for (const AdmissionOutcome& outcome : run_window(controller, std::move(window))) {
      if (outcome.status == AdmissionStatus::admitted) live.push_back(outcome.contract);
      if (outcome.status == AdmissionStatus::released) std::erase(live, outcome.contract);
      result.statuses.push_back(outcome.status);
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
    }
    result.max_rebuild_placements =
        std::max(result.max_rebuild_placements, controller.rebuild_placements());
    // The delta-replay equivalence the service is built on: the maintained
    // residuals match a from-scratch rebuild of the commit history exactly.
    EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch())
        << "divergence after window " << window_index++;
  }
  (void)controller.audit_fastpath();  // drain the deferred exact audit queue
  result.fast = controller.fastpath_stats();
  result.residuals = controller.residual_snapshot();
  result.contracts = fingerprint(controller.contracts_snapshot());
  return result;
}

TEST(AdmissionService, IncrementalMatchesFromScratchUnderChurn) {
  const topology::Topology topo = topology::figure6_topology();
  const auto serial = churn(topo, {.threads = 1});
  const auto parallel = churn(topo, {.threads = 4});
  // Thread count must not change a single bit of the risk state.
  EXPECT_EQ(serial, parallel);
}

// Decision equivalence for the two-tier fast path: the same churn stream
// must produce the same verdicts, the same approved rates and bit-identical
// residual state with the fast path on as exact-only — at 1 and N threads —
// and the deferred exact audit must find ZERO bound violations.
TEST(AdmissionService, FastPathChurnMatchesExactOnlyDecisions) {
  const topology::Topology topo = topology::figure6_topology();
  const auto exact_serial = churn(topo, {.threads = 1, .fastpath = false});
  const auto fast_serial = churn(topo, {.threads = 1, .fastpath = true});
  const auto fast_parallel = churn(topo, {.threads = 4, .fastpath = true});

  EXPECT_EQ(fast_serial, exact_serial);
  EXPECT_EQ(fast_parallel, exact_serial);

  // The run must actually exercise the fast tier, not vacuously match: some
  // windows fast-admit (and are audited) while release/resize windows and
  // borderline admits go exact.
  EXPECT_GT(fast_serial.fast.hits, 0u);
  EXPECT_GT(fast_serial.fast.audited, 0u);
  EXPECT_EQ(fast_serial.fast.violations, 0u);
  EXPECT_EQ(fast_parallel.fast.violations, 0u);
  // Every audited window was recorded and drained.
  EXPECT_EQ(fast_serial.fast.audited, fast_parallel.fast.audited);
  // Exact-only runs never consult the estimator.
  EXPECT_EQ(exact_serial.fast.hits, 0u);
  EXPECT_EQ(exact_serial.fast.audited, 0u);
}

/// Reference summaries: one freshly built estimator per realization over the
/// controller's current residual snapshot. The maintained summaries must
/// equal this after EVERY kind of window.
std::vector<std::vector<double>> fresh_headroom(const AdmissionController& controller,
                                                const topology::Topology& topo) {
  const AdmissionController::ResidualState residuals = controller.residual_snapshot();
  std::vector<std::vector<double>> out;
  out.reserve(residuals.size());
  for (const auto& realization : residuals) {
    risk::FastEstimator fast(topo, controller.scenarios());
    fast.rebuild(realization);
    out.emplace_back(fast.headroom().begin(), fast.headroom().end());
  }
  return out;
}

// Summary maintenance edge cases: the headroom summaries must match a fresh
// rebuild after a release that empties a realization, after a resize-down,
// and through the empty-set / single-contract / everything-dirty rebuild
// paths. A stale summary would silently turn the bound optimistic.
TEST(AdmissionService, FastPathSummariesStayFreshAcrossChurnEdgeCases) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config = small_config(23);
  config.approval.fastpath.enabled = true;
  config.approval.slo_availability = 0.995;  // clearable by the union bound
  AdmissionController controller(topo, config);

  // Empty-set path: summaries of the pristine state.
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));

  // Single-contract admit (refresh_links path).
  const auto first = controller.admit(NpgId(1), "a", hose_pair(1, QosClass::c1_low, 0, 2, 60.0));
  ASSERT_EQ(first.status, AdmissionStatus::admitted);
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));

  // Second contract, then resize the first DOWN (full-rebuild path; the
  // rebuilt residuals are larger than before on the shrunk links).
  const auto second = controller.admit(NpgId(2), "b", hose_pair(2, QosClass::c2_low, 1, 4, 80.0));
  ASSERT_EQ(second.status, AdmissionStatus::admitted);
  const auto shrunk = controller.resize(first.contract, hose_pair(1, QosClass::c1_low, 0, 2, 15.0));
  ASSERT_EQ(shrunk.status, AdmissionStatus::resized);
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));

  // Release down to one contract, then to none: the release that empties a
  // realization must leave summaries equal to the pristine rebuild.
  ASSERT_EQ(controller.release(second.contract).status, AdmissionStatus::released);
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));
  ASSERT_EQ(controller.release(first.contract).status, AdmissionStatus::released);
  EXPECT_EQ(controller.admitted_count(), 0u);
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));

  // Everything-dirty path: one window admitting several contracts touching
  // most of the topology, committed incrementally.
  std::vector<AdmissionRequest> window;
  for (std::uint32_t npg = 10; npg < 15; ++npg) {
    window.push_back(
        admit_request(npg, hose_pair(npg, QosClass::c2_low, npg % 5, (npg + 2) % 5, 45.0)));
  }
  for (const auto& outcome : run_window(controller, std::move(window))) {
    EXPECT_EQ(outcome.status, AdmissionStatus::admitted);
  }
  EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));

  (void)controller.audit_fastpath();
  EXPECT_GT(controller.fastpath_stats().audited, 0u);
  EXPECT_EQ(controller.fastpath_stats().violations, 0u);
}

// A release and a rejected resize in one window: the evaluation dropped the
// resize target's old grant, which the rejection keeps, so the commit cannot
// reuse the evaluation's residuals and must rebuild from the history. An
// accepted resize beside a release takes the reuse path; both must match a
// from-scratch rebuild.
TEST(AdmissionService, ReleaseBesideRejectedResizeRebuildsFromHistory) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config = small_config(29);
  config.admit_min_fraction = 1.0;  // a shortfall rejects the resize
  AdmissionController controller(topo, config);

  const auto a = controller.admit(NpgId(1), "a", hose_pair(1, QosClass::c1_low, 0, 2, 5.0));
  const auto b = controller.admit(NpgId(2), "b", hose_pair(2, QosClass::c2_low, 1, 3, 5.0));
  const auto c = controller.admit(NpgId(3), "c", hose_pair(3, QosClass::c2_low, 2, 4, 5.0));
  ASSERT_EQ(a.status, AdmissionStatus::admitted);
  ASSERT_EQ(b.status, AdmissionStatus::admitted);
  ASSERT_EQ(c.status, AdmissionStatus::admitted);
  const auto granted = [&](ContractId id) {
    std::vector<double> rates;
    const core::ContractDb db = controller.contracts_snapshot();
    for (const core::Entitlement& e : db.find_by_id(id)->entitlements) {
      rates.push_back(e.entitled_rate.value());
    }
    return rates;
  };
  const std::vector<double> b_before = granted(b.contract);

  AdmissionRequest release;
  release.kind = RequestKind::release;
  release.contract = a.contract;
  AdmissionRequest greedy;
  greedy.kind = RequestKind::resize;
  greedy.contract = b.contract;
  greedy.hoses = hose_pair(2, QosClass::c2_low, 1, 3, 1e6);
  std::vector<AdmissionRequest> window;
  window.push_back(std::move(release));
  window.push_back(std::move(greedy));
  const auto outcomes = run_window(controller, std::move(window));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, AdmissionStatus::released);
  EXPECT_EQ(outcomes[1].status, AdmissionStatus::rejected);
  EXPECT_EQ(controller.admitted_count(), 2u);
  EXPECT_EQ(granted(b.contract), b_before);  // the rejected resize keeps its grant
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());

  // Release + accepted resize: the commit reuses the evaluation's state.
  AdmissionRequest release_c;
  release_c.kind = RequestKind::release;
  release_c.contract = c.contract;
  AdmissionRequest modest;
  modest.kind = RequestKind::resize;
  modest.contract = b.contract;
  modest.hoses = hose_pair(2, QosClass::c2_low, 1, 3, 2.0);
  window.clear();
  window.push_back(std::move(release_c));
  window.push_back(std::move(modest));
  const auto reused = run_window(controller, std::move(window));
  EXPECT_EQ(reused[0].status, AdmissionStatus::released);
  EXPECT_EQ(reused[1].status, AdmissionStatus::resized);
  EXPECT_EQ(controller.admitted_count(), 1u);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());
}

TEST(AdmissionService, RejectionAttachesCounterProposals) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config = small_config();
  config.admit_min_fraction = 1.0;  // shortfalls become rejections
  config.attach_counter_proposals = true;
  AdmissionController controller(topo, config);

  const auto outcome =
      controller.admit(NpgId(1), "greedy", hose_pair(1, QosClass::c1_low, 0, 1, 1e6));
  EXPECT_EQ(outcome.status, AdmissionStatus::rejected);
  EXPECT_EQ(controller.admitted_count(), 0u);
  ASSERT_FALSE(outcome.approvals.empty());
  ASSERT_FALSE(outcome.proposals.empty());
  // The counter-proposal names the admittable volume (option (a), §8).
  EXPECT_LT(outcome.proposals[0].guaranteed.value(), 1e6);
  EXPECT_FALSE(outcome.proposals[0].fully_approved());
}

TEST(AdmissionService, ReleaseFreesTheNpgAndItsCapacity) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionController controller(topo, small_config());

  const auto first = controller.admit(NpgId(1), "a", hose_pair(1, QosClass::c1_low, 0, 2, 50.0));
  ASSERT_EQ(first.status, AdmissionStatus::admitted);
  // The NPG now holds a live contract: a second admit must fail.
  const auto duplicate = controller.admit(NpgId(1), "a2", hose_pair(1, QosClass::c1_low, 1, 3, 10.0));
  EXPECT_EQ(duplicate.status, AdmissionStatus::failed);
  ASSERT_TRUE(duplicate.error.has_value());

  const auto released = controller.release(first.contract);
  EXPECT_EQ(released.status, AdmissionStatus::released);
  EXPECT_EQ(controller.admitted_count(), 0u);
  // Fully released state is the pristine one: the rebuild has no history.
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());

  const auto readmitted =
      controller.admit(NpgId(1), "a3", hose_pair(1, QosClass::c1_low, 0, 2, 50.0));
  EXPECT_EQ(readmitted.status, AdmissionStatus::admitted);
  EXPECT_NE(readmitted.contract, first.contract);  // ids are never reused
}

TEST(AdmissionService, ResizeKeepsTheContractId) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionController controller(topo, small_config());

  const auto admitted = controller.admit(NpgId(4), "svc", hose_pair(4, QosClass::c1_low, 0, 3, 40.0));
  ASSERT_EQ(admitted.status, AdmissionStatus::admitted);
  std::vector<HoseRequest> bigger = hose_pair(4, QosClass::c1_low, 0, 3, 80.0);
  const auto extra = hose_pair(4, QosClass::c2_low, 2, 4, 30.0);
  bigger.insert(bigger.end(), extra.begin(), extra.end());
  const auto resized = controller.resize(admitted.contract, bigger);
  ASSERT_EQ(resized.status, AdmissionStatus::resized);
  EXPECT_EQ(resized.contract, admitted.contract);
  EXPECT_EQ(controller.admitted_count(), 1u);

  const core::ContractDb db = controller.contracts_snapshot();
  const auto* contract = db.find_by_id(admitted.contract);
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->entitlements.size(), 4u);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());

  // Unknown ids fail cleanly.
  EXPECT_EQ(controller.resize(999, hose_pair(4, QosClass::c1_low, 0, 3, 1.0)).status,
            AdmissionStatus::failed);
  EXPECT_EQ(controller.release(999).status, AdmissionStatus::failed);
}

TEST(AdmissionService, MalformedRequestsFailWithoutStateChanges) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionController controller(topo, small_config());

  // Hose NPG differing from the request NPG.
  auto mismatched = controller.admit(NpgId(1), "x", {make_hose(2, QosClass::c1_low, 0, 10.0)});
  EXPECT_EQ(mismatched.status, AdmissionStatus::failed);
  // Region out of range.
  auto bad_region = controller.admit(NpgId(1), "x", {make_hose(1, QosClass::c1_low, 99, 10.0)});
  EXPECT_EQ(bad_region.status, AdmissionStatus::failed);
  // Zero-bandwidth ask.
  auto empty_ask = controller.admit(NpgId(1), "x", {make_hose(1, QosClass::c1_low, 0, 0.0)});
  EXPECT_EQ(empty_ask.status, AdmissionStatus::failed);
  // Non-finite rates.
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    auto non_finite = controller.admit(NpgId(1), "x", hose_pair(1, QosClass::c1_low, 0, 2, rate));
    EXPECT_EQ(non_finite.status, AdmissionStatus::failed) << rate;
    ASSERT_TRUE(non_finite.error.has_value()) << rate;
    EXPECT_EQ(non_finite.error->code, ErrorCode::invalid_argument) << rate;
    EXPECT_NE(non_finite.error->message.find("hoses[0].rate"), std::string::npos)
        << non_finite.error->message;
  }

  EXPECT_EQ(controller.admitted_count(), 0u);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());

  // A non-finite rate fails its own request only: the valid admit sharing
  // its window is admitted.
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    const std::uint32_t npg = rate != rate ? 2 : 3;
    std::vector<AdmissionRequest> window;
    window.push_back(admit_request(1, hose_pair(1, QosClass::c1_low, 0, 2, rate)));
    window.push_back(admit_request(npg, hose_pair(npg, QosClass::c1_low, 1, 3, 5.0)));
    const auto outcomes = run_window(controller, std::move(window));
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, AdmissionStatus::failed) << rate;
    ASSERT_TRUE(outcomes[0].error.has_value()) << rate;
    EXPECT_EQ(outcomes[0].error->code, ErrorCode::invalid_argument) << rate;
    EXPECT_NE(outcomes[0].error->message.find("hoses[0].rate"), std::string::npos)
        << outcomes[0].error->message;
    EXPECT_EQ(outcomes[1].status, AdmissionStatus::admitted) << rate;
  }
  EXPECT_EQ(controller.admitted_count(), 2u);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());
}

// Within one window, requests are judged in submission order against the
// contract registry: a release frees its NPG for an admit that follows it,
// but not for one that precedes it.
TEST(AdmissionService, ReleaseFreesTheNpgForALaterAdmitInTheSameWindow) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionController controller(topo, small_config());
  const auto held = controller.admit(NpgId(1), "a", hose_pair(1, QosClass::c1_low, 0, 2, 20.0));
  ASSERT_EQ(held.status, AdmissionStatus::admitted);

  AdmissionRequest release;
  release.kind = RequestKind::release;
  release.contract = held.contract;
  std::vector<AdmissionRequest> window;
  window.push_back(admit_request(1, hose_pair(1, QosClass::c1_low, 1, 3, 10.0)));
  window.push_back(release);
  auto outcomes = run_window(controller, std::move(window));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, AdmissionStatus::failed);  // NPG 1 still held
  EXPECT_EQ(outcomes[1].status, AdmissionStatus::released);
  EXPECT_EQ(controller.admitted_count(), 0u);

  const auto again = controller.admit(NpgId(1), "b", hose_pair(1, QosClass::c1_low, 0, 2, 20.0));
  ASSERT_EQ(again.status, AdmissionStatus::admitted);
  release.contract = again.contract;
  window.clear();
  window.push_back(release);
  window.push_back(admit_request(1, hose_pair(1, QosClass::c1_low, 1, 3, 10.0)));
  outcomes = run_window(controller, std::move(window));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, AdmissionStatus::released);
  EXPECT_EQ(outcomes[1].status, AdmissionStatus::admitted);
  EXPECT_EQ(controller.admitted_count(), 1u);
  const core::ContractDb db = controller.contracts_snapshot();
  ASSERT_NE(db.find(NpgId(1)), nullptr);
  EXPECT_EQ(db.find(NpgId(1))->id, outcomes[1].contract);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());
}

// Background mode: concurrent submitters share windows with the coalescing
// worker; every future resolves and the risk state stays exact. (Run under
// -DNETENT_SANITIZE=thread via the tsan label.)
TEST(AdmissionService, BackgroundConcurrentSubmissions) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config = small_config(17);
  config.background = true;
  config.batch_window_seconds = 0.002;
  AdmissionController controller(topo, config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::thread> submitters;
  std::vector<std::future<AdmissionOutcome>> futures(kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint32_t npg = static_cast<std::uint32_t>(1 + t * kPerThread + i);
        futures[static_cast<std::size_t>(t * kPerThread + i)] = controller.submit(
            admit_request(npg, hose_pair(npg, QosClass::c2_low, npg % 5, (npg + 2) % 5, 15.0)));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  controller.flush();  // drain anything still queued

  std::size_t admitted = 0;
  for (auto& future : futures) {
    const AdmissionOutcome outcome = future.get();
    EXPECT_NE(outcome.status, AdmissionStatus::failed);
    if (outcome.status == AdmissionStatus::admitted) ++admitted;
  }
  EXPECT_EQ(admitted, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(controller.admitted_count(), admitted);
  EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());
}

// Background mode with the fast path on: the worker thread takes fast-tier
// decisions, enqueues audit records and drains them while idle, racing
// concurrent submitters and the final flush. (Run under
// -DNETENT_SANITIZE=thread via the tsan label.)
TEST(AdmissionService, BackgroundFastPathAuditsConcurrently) {
  const topology::Topology topo = topology::figure6_topology();
  AdmissionConfig config = small_config(31);
  config.background = true;
  config.batch_window_seconds = 0.002;
  config.approval.fastpath.enabled = true;
  config.approval.slo_availability = 0.995;  // clearable by the union bound
  {
    AdmissionController controller(topo, config);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;
    std::vector<std::thread> submitters;
    std::vector<std::future<AdmissionOutcome>> futures(kThreads * kPerThread);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint32_t npg = static_cast<std::uint32_t>(1 + t * kPerThread + i);
          futures[static_cast<std::size_t>(t * kPerThread + i)] = controller.submit(
              admit_request(npg, hose_pair(npg, QosClass::c2_low, npg % 5, (npg + 2) % 5, 10.0)));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    controller.flush();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().status, AdmissionStatus::admitted);
    }
    EXPECT_EQ(controller.residual_snapshot(), controller.rebuild_residuals_from_scratch());
    EXPECT_EQ(controller.fastpath_headroom_snapshot(), fresh_headroom(controller, topo));
    (void)controller.audit_fastpath();  // whatever the worker has not drained
    const auto stats = controller.fastpath_stats();
    EXPECT_GT(stats.hits + stats.fallbacks, 0u);
    EXPECT_EQ(stats.violations, 0u);
  }  // destructor drains any remaining audit records
}

TEST(AdmissionService, MetricsRecordedWhenObsEnabled) {
  if (!obs::kEnabled) GTEST_SKIP() << "NETENT_OBS=OFF build";
  const topology::Topology topo = topology::figure6_topology();
  AdmissionController controller(topo, small_config());
  (void)controller.admit(NpgId(1), "m", hose_pair(1, QosClass::c1_low, 0, 2, 25.0));

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_GE(counter("service.admission.requests"), 1u);
  EXPECT_GE(counter("service.admission.admitted"), 1u);
  EXPECT_GE(counter("service.admission.windows"), 1u);
  const bool has_latency =
      std::any_of(snapshot.histograms.begin(), snapshot.histograms.end(),
                  [](const auto& h) { return h.name == "service.admission.latency_seconds"; });
  EXPECT_TRUE(has_latency);
}

// --- Thread-count torture ------------------------------------------------
// The SAME request streams replayed at 1/2/4/8 threads must produce
// bit-identical verdicts, approved rates, residual state, contract databases
// and fast-path accounting. Every stream's residual rebuilds exceed the
// fan-out cutoff, so the shared pool really runs them at > 1 thread.

void expect_same_fast_stats(const AdmissionController::FastPathStats& a,
                            const AdmissionController::FastPathStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.audited, b.audited);
  EXPECT_EQ(a.violations, b.violations);
}

// A long mixed churn stream decides bit-identically at every thread count,
// down to residual state and the full contract database.
TEST(AdmissionThreadCounts, ChurnTortureEquivalence) {
  const topology::Topology topo = topology::figure6_topology();
  const ChurnResult reference = churn(topo, {.threads = 1, .total_requests = 512});
  ASSERT_FALSE(reference.statuses.empty());
  EXPECT_GT(reference.max_rebuild_placements, kFanOutCutoffPlacements);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(churn(topo, {.threads = threads, .total_requests = 512}), reference)
        << "divergence at " << threads << " threads";
  }
}

// Same equivalence with the two-tier fast path engaged: fast-hit accounting
// and the deferred exact audit must not depend on the thread count, and the
// audit must find zero bound violations at every thread count.
TEST(AdmissionThreadCounts, FastPathChurnEquivalence) {
  const topology::Topology topo = topology::figure6_topology();
  const ChurnResult reference =
      churn(topo, {.threads = 1, .fastpath = true, .total_requests = 384});
  EXPECT_GT(reference.fast.hits, 0u);  // the tier is actually exercised
  EXPECT_EQ(reference.fast.violations, 0u);
  EXPECT_GT(reference.max_rebuild_placements, kFanOutCutoffPlacements);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const ChurnResult run =
        churn(topo, {.threads = threads, .fastpath = true, .total_requests = 384});
    EXPECT_EQ(run, reference) << "divergence at " << threads << " threads";
    expect_same_fast_stats(run.fast, reference.fast);
  }
}

// One 32-admit burst window: the joint approval's cross-request coupling
// (later admits see earlier ones' placements within the window) and the
// window's commit fan-out must decide identically at every thread count.
TEST(AdmissionThreadCounts, BurstWindowEquivalence) {
  const topology::Topology topo = topology::figure6_topology();
  const auto regions = static_cast<std::uint32_t>(topo.region_count());
  const auto burst_run = [&](std::size_t threads) {
    AdmissionConfig config;
    config.approval.realizations = 4;
    config.approval.slo_availability = 0.995;
    config.approval.scenarios.max_simultaneous = 2;
    config.exec.threads = threads;
    config.seed = 9;
    config.background = false;
    config.attach_counter_proposals = false;
    AdmissionController controller(topo, config);
    std::vector<AdmissionRequest> window;
    for (std::uint32_t i = 0; i < 32; ++i) {
      const std::uint32_t src = i % regions;
      const std::uint32_t dst = (i + 2) % regions;
      window.push_back(admit_request(
          i + 1, hose_pair(i + 1, static_cast<QosClass>(i % kQosClassCount), src, dst,
                           15.0 + static_cast<double>(i))));
    }
    ChurnResult result;
    for (const AdmissionOutcome& outcome : run_window(controller, std::move(window))) {
      result.statuses.push_back(outcome.status);
      for (const auto& approval : outcome.approvals) {
        result.approved.push_back(approval.approved.value());
      }
    }
    result.max_rebuild_placements = controller.rebuild_placements();
    result.residuals = controller.residual_snapshot();
    result.contracts = fingerprint(controller.contracts_snapshot());
    EXPECT_EQ(result.residuals, controller.rebuild_residuals_from_scratch());
    return result;
  };
  const ChurnResult reference = burst_run(1);
  ASSERT_EQ(reference.statuses.size(), 32u);
  // The burst's commit places as many demands as a rebuild would.
  EXPECT_GT(reference.max_rebuild_placements, kFanOutCutoffPlacements);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(burst_run(threads), reference) << "divergence at " << threads << " threads";
  }
}

// Shutdown under load: concurrent submitters race flush() and then the
// destructor while the worker's fan-outs run on the shared pool. Every
// submitted request's future must resolve (processed or failed at
// shutdown), no contract id may be handed out twice, and the committed
// state must still equal its from-scratch rebuild.
TEST(AdmissionThreadCounts, ShutdownUnderLoadDropsAndDuplicatesNothing) {
  const topology::Topology topo = topology::figure6_topology();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    AdmissionConfig config;
    config.approval.realizations = 3;
    config.approval.slo_availability = 0.995;
    config.approval.scenarios.max_simultaneous = 2;
    config.exec.threads = threads;
    config.seed = 5;
    config.background = true;  // the worker coalesces + processes concurrently
    config.batch_window_seconds = 0.0005;
    config.attach_counter_proposals = false;
    auto controller = std::make_unique<AdmissionController>(topo, config);

    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPerSubmitter = 16;
    std::mutex futures_mutex;
    std::vector<std::future<AdmissionOutcome>> futures;
    std::atomic<std::uint32_t> next_npg{1};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
          const std::uint32_t npg = next_npg.fetch_add(1);
          auto future = controller->submit(admit_request(
              npg, hose_pair(npg, QosClass::c2_low, npg % 4, (npg + 2) % 4, 30.0)));
          const std::lock_guard<std::mutex> lock(futures_mutex);
          futures.push_back(std::move(future));
        }
      });
    }
    // flush() races the background worker and the submitters — both drain
    // the same queue; every request must land in exactly one window.
    for (int i = 0; i < 8; ++i) controller->flush();
    for (std::thread& submitter : submitters) submitter.join();
    controller->flush();
    // The worker may still be committing a window it took before the last
    // flush: wait for every outcome, so the state checked below is settled.
    for (const auto& future : futures) future.wait();

    // Settled state before teardown: delta-replay invariant holds, ids
    // unique, and the rebuild is big enough to run on the pool.
    EXPECT_GT(controller->rebuild_placements(), kFanOutCutoffPlacements);
    EXPECT_EQ(controller->residual_snapshot(), controller->rebuild_residuals_from_scratch());
    const core::ContractDb db = controller->contracts_snapshot();
    std::vector<std::uint64_t> db_ids;
    for (const auto& contract : db.contracts()) db_ids.push_back(contract.id);
    std::sort(db_ids.begin(), db_ids.end());
    EXPECT_EQ(std::adjacent_find(db_ids.begin(), db_ids.end()), db_ids.end());

    // A final burst races the destructor: these futures must ALSO resolve —
    // either processed by the draining worker or failed at shutdown.
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t npg = next_npg.fetch_add(1);
      futures.push_back(controller->submit(
          admit_request(npg, hose_pair(npg, QosClass::c3_low, npg % 4, (npg + 1) % 4, 10.0))));
    }
    controller.reset();  // teardown with work possibly still queued

    ASSERT_EQ(futures.size(), kSubmitters * kPerSubmitter + 8);
    std::vector<std::uint64_t> admitted_ids;
    for (auto& future : futures) {
      const AdmissionOutcome outcome = future.get();  // throws if a promise was dropped
      if (outcome.status == AdmissionStatus::admitted) admitted_ids.push_back(outcome.contract);
    }
    std::sort(admitted_ids.begin(), admitted_ids.end());
    EXPECT_EQ(std::adjacent_find(admitted_ids.begin(), admitted_ids.end()), admitted_ids.end())
        << "a contract id was handed out twice at " << threads << " threads";
    // Everything in the final database was reported admitted to some caller.
    for (const std::uint64_t id : db_ids) {
      EXPECT_TRUE(std::binary_search(admitted_ids.begin(), admitted_ids.end(), id));
    }
  }
}

}  // namespace
}  // namespace netent::service
