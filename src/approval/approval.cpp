#include "approval/approval.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace netent::approval {

using hose::Direction;
using hose::HoseRequest;
using hose::PipeRequest;
using topology::Demand;

namespace {
constexpr double kEps = kRateEpsGbps;  ///< local alias for brevity

struct ApprovalMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& pipe_requests = reg.counter("approval.pipe.requests");
  obs::Counter& pipe_approved_full = reg.counter("approval.pipe.approved_full");
  obs::Counter& pipe_downgraded = reg.counter("approval.pipe.downgraded");
  obs::Counter& pipe_denied = reg.counter("approval.pipe.denied");
  obs::Counter& pipe_batch_rejected = reg.counter("approval.pipe.batch_rejected");
  obs::Counter& pipe_requested_mgbps = reg.counter("approval.pipe.requested_mgbps");
  obs::Counter& pipe_approved_mgbps = reg.counter("approval.pipe.approved_mgbps");
  obs::Counter& hose_requests = reg.counter("approval.hose.requests");
  obs::Counter& hose_approved_full = reg.counter("approval.hose.approved_full");
  obs::Counter& hose_downgraded = reg.counter("approval.hose.downgraded");
  obs::Counter& hose_denied = reg.counter("approval.hose.denied");
  obs::Counter& hose_requested_mgbps = reg.counter("approval.hose.requested_mgbps");
  obs::Counter& hose_approved_mgbps = reg.counter("approval.hose.approved_mgbps");
  obs::Histogram& assess_seconds = reg.timer_histogram("approval.pipe.assess_seconds");
};

ApprovalMetrics& metrics() {
  static ApprovalMetrics instance;
  return instance;
}

/// Registered on the first verify call only, so runs that never verify
/// export no risk.slo.* metrics.
struct VerifyMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& verifications = reg.counter("risk.slo.verifications");
  obs::Counter& pipes_verified = reg.counter("risk.slo.pipes_verified");
  obs::Counter& scenarios_replayed = reg.counter("risk.slo.scenarios_replayed");
  /// (scenario, pipe) pairs where the approved pipe was fully admitted —
  /// the integer numerator behind the attainment fractions.
  obs::Counter& admitted_outcomes = reg.counter("risk.slo.admitted_outcomes");
  obs::Histogram& replay_seconds = reg.timer_histogram("risk.slo.scenario_replay_seconds");
};

VerifyMetrics& verify_metrics() {
  static VerifyMetrics instance;
  return instance;
}

std::uint64_t mgbps(Gbps rate) {
  return static_cast<std::uint64_t>(std::llround(rate.value() * 1e3));
}

/// full / downgraded / denied verdict tallies shared by both pipelines.
void count_verdict(Gbps requested, Gbps approved, obs::Counter& full, obs::Counter& downgraded,
                   obs::Counter& denied) {
  if (approved >= requested - Gbps(kEps)) {
    full.add();
  } else if (approved <= Gbps(kEps)) {
    denied.add();
  } else {
    downgraded.add();
  }
}
}  // namespace

ApprovalEngine::ApprovalEngine(topology::Router& router, ApprovalConfig config)
    : router_(router),
      config_(std::move(config)),
      low_touch_([](NpgId) { return false; }),
      simulator_(router_, risk::enumerate_scenarios(router.topo(), config_.scenarios),
                 router_.full_capacities()) {
  NETENT_EXPECTS(config_.slo_availability > 0.0 && config_.slo_availability <= 1.0);
  NETENT_EXPECTS(config_.realizations >= 1);
}

bool ApprovalEngine::resync_topology() {
  return simulator_.resync(risk::enumerate_scenarios(router_.topo(), config_.scenarios),
                           router_.full_capacities());
}

std::vector<PipeApprovalResult> ApprovalEngine::pipe_approval(
    std::span<const PipeRequest> pipes) const {
  // ASSESS_RISK over the full capacity; priority is encoded in the order.
  // The simulator (and the router's warmed path cache) is shared across
  // calls — hose_approval's realizations never rebuild it.
  return pipe_approval_with(pipes, [this](std::span<const Demand> demands) {
    return simulator_.availability_curves(demands, config_.sweep_threads());
  });
}

std::vector<std::size_t> ApprovalEngine::placement_order(
    std::span<const PipeRequest> pipes) const {
  // Placement order: QoS classes premium-first (the priority requirement of
  // SS4.3), low-touch demand first within a class, then input order. Risk is
  // assessed JOINTLY in this order: strict-priority placement per scenario
  // both enforces class priority and keeps the availability curves honest
  // for lower classes (a per-class reservation approximation can overstate
  // what survives a failure, breaking the SLO promise).
  std::vector<std::size_t> order;
  order.reserve(pipes.size());
  for (const QosClass qos : qos_priority_order()) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < pipes.size(); ++i) {
      if (pipes[i].qos == qos) indices.push_back(i);
    }
    std::stable_sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      return low_touch_(pipes[a].npg) && !low_touch_(pipes[b].npg);
    });
    order.insert(order.end(), indices.begin(), indices.end());
  }
  return order;
}

std::vector<PipeAttainment> ApprovalEngine::verify(std::span<const PipeApprovalResult> approvals,
                                                   std::size_t num_threads,
                                                   risk::SweepMode mode) const {
  // Replay in the order pipe_approval placed the pipes, skipping those
  // approved at zero (nothing was promised).
  std::vector<PipeRequest> requests;
  requests.reserve(approvals.size());
  for (const PipeApprovalResult& approval : approvals) requests.push_back(approval.request);
  std::vector<Demand> demands;
  std::vector<PipeAttainment> attainments;
  for (const std::size_t i : placement_order(requests)) {
    const PipeApprovalResult& approval = approvals[i];
    if (approval.approved > Gbps(0)) {
      demands.push_back({approval.request.src, approval.request.dst, approval.approved});
      attainments.push_back({approval.request, approval.approved, 0.0});
    }
  }

  VerifyMetrics& m = verify_metrics();
  const std::span<const risk::FailureScenario> scenarios = simulator_.scenarios();
  m.verifications.add();
  m.pipes_verified.add(demands.size());
  m.scenarios_replayed.add(scenarios.size());
  const auto placed = risk::sweep_scenario_placements(
      router_, demands, router_.full_capacities(), simulator_.srlg_index(), scenarios,
      num_threads, mode, &m.replay_seconds);

  // Probability masses accumulate serially in scenario order, so the
  // attainments are bit-identical for every thread count and sweep mode.
  std::uint64_t admitted_count = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t k = 0; k < demands.size(); ++k) {
      if (placed[s][k] >= demands[k].amount.value() - 1e-6) {
        attainments[k].achieved_availability += scenarios[s].probability;
        ++admitted_count;
      }
    }
  }
  if (admitted_count != 0) m.admitted_outcomes.add(admitted_count);
  return attainments;
}

std::vector<PipeApprovalResult> ApprovalEngine::pipe_approval_with(
    std::span<const PipeRequest> pipes, const CurveProvider& curves_for) const {
  std::vector<PipeApprovalResult> results(pipes.size());
  for (std::size_t i = 0; i < pipes.size(); ++i) results[i].request = pipes[i];
  if (pipes.empty()) return results;

  ApprovalMetrics& m = metrics();
  const obs::ScopedTimer span(m.assess_seconds);
  m.pipe_requests.add(pipes.size());

  const std::vector<std::size_t> order = placement_order(pipes);

  std::vector<Demand> demands;
  demands.reserve(order.size());
  for (const std::size_t i : order) {
    demands.push_back({pipes[i].src, pipes[i].dst, pipes[i].rate});
  }

  const auto curves = curves_for(demands);
  NETENT_ENSURES(curves.size() == demands.size());

  for (std::size_t k = 0; k < order.size(); ++k) {
    PipeApprovalResult& result = results[order[k]];
    const Gbps at_slo = curves[k].bandwidth_at(config_.slo_availability);
    result.approved = min(result.request.rate, at_slo);
    result.availability_at_request = curves[k].availability_at(result.request.rate);
  }

  if (config_.strict_batch) {
    // All-or-nothing per (NPG, QoS class) batch.
    std::map<std::pair<std::uint32_t, QosClass>, bool> batch_ok;
    for (std::size_t i = 0; i < pipes.size(); ++i) {
      const bool ok = results[i].approved >= results[i].request.rate - Gbps(kEps);
      auto [it, inserted] = batch_ok.emplace(std::make_pair(pipes[i].npg.value(), pipes[i].qos), ok);
      if (!inserted) it->second = it->second && ok;
    }
    for (std::size_t i = 0; i < pipes.size(); ++i) {
      if (!batch_ok[{pipes[i].npg.value(), pipes[i].qos}]) {
        if (results[i].approved > Gbps(kEps)) m.pipe_batch_rejected.add();
        results[i].approved = Gbps(0);
      }
    }
  }

  for (const PipeApprovalResult& result : results) {
    count_verdict(result.request.rate, result.approved, m.pipe_approved_full, m.pipe_downgraded,
                  m.pipe_denied);
    m.pipe_requested_mgbps.add(mgbps(result.request.rate));
    m.pipe_approved_mgbps.add(mgbps(result.approved));
  }
  return results;
}

std::vector<HoseApprovalResult> ApprovalEngine::hose_approval(std::span<const HoseRequest> hoses,
                                                              Rng& rng) const {
  return hose_approval(hoses, {}, rng);
}

std::vector<HoseApprovalResult> ApprovalEngine::hose_approval(
    std::span<const HoseRequest> hoses, std::span<const GroupSegments> segments, Rng& rng) const {
  const RealizationPipes drawn = draw_realizations(hoses, segments, rng);
  std::vector<std::vector<PipeApprovalResult>> assessed(drawn.size());
  for (std::size_t k = 0; k < drawn.size(); ++k) {
    if (!drawn[k].empty()) assessed[k] = pipe_approval(drawn[k]);
  }
  return aggregate_realizations(hoses, drawn, assessed);
}

ApprovalEngine::RealizationPipes ApprovalEngine::draw_realizations(
    std::span<const HoseRequest> hoses, std::span<const GroupSegments> segments, Rng& rng) const {
  NETENT_EXPECTS(!hoses.empty());
  const std::size_t n = router_.topo().region_count();

  // Group hoses into per-(NPG, QoS) spaces.
  struct Group {
    NpgId npg;
    QosClass qos;
    std::vector<double> egress;
    std::vector<double> ingress;
  };
  std::map<std::pair<std::uint32_t, QosClass>, Group> groups;
  for (const HoseRequest& hose : hoses) {
    NETENT_EXPECTS(hose.region.value() < n);
    NETENT_EXPECTS(static_cast<std::size_t>(hose.qos) < kQosClassCount);
    NETENT_EXPECTS(hose.direction == Direction::egress || hose.direction == Direction::ingress);
    auto& group = groups[{hose.npg.value(), hose.qos}];
    if (group.egress.empty()) {
      group.npg = hose.npg;
      group.qos = hose.qos;
      group.egress.assign(n, 0.0);
      group.ingress.assign(n, 0.0);
    }
    auto& side = hose.direction == Direction::egress ? group.egress : group.ingress;
    side[hose.region.value()] += hose.rate.value();
  }

  RealizationPipes drawn(config_.realizations);
  for (std::size_t k = 0; k < config_.realizations; ++k) {
    // GEN_DEMAND: one representative realization per group.
    std::vector<PipeRequest>& pipes = drawn[k];
    for (auto& [key, group] : groups) {
      hose::HoseSpace space(group.egress, group.ingress);
      for (const GroupSegments& gs : segments) {
        if (gs.npg == group.npg && gs.qos == group.qos) {
          for (const hose::SegmentConstraint& sc : gs.segments) space.add_segment(sc);
        }
      }
      const traffic::TrafficMatrix tm = k == 0 ? space.sample(rng) : space.extreme_point(rng);
      for (const Demand& demand : tm.demands()) {
        pipes.push_back(PipeRequest{group.npg, group.qos, demand.src, demand.dst, demand.amount});
      }
    }
  }
  return drawn;
}

std::vector<HoseApprovalResult> ApprovalEngine::aggregate_realizations(
    std::span<const HoseRequest> hoses, const RealizationPipes& realization_pipes,
    std::span<const std::vector<PipeApprovalResult>> per_realization) const {
  NETENT_EXPECTS(!hoses.empty());
  NETENT_EXPECTS(per_realization.size() == realization_pipes.size());

  // Per-hose approval fraction, aggregated as min over realizations of the
  // fraction of the realization's demand on that hose that met the SLO.
  // (Using fractions rather than absolute sums keeps realizations in which a
  // hose happens to be lightly used from understating its guarantee.)
  std::map<std::tuple<std::uint32_t, QosClass, std::uint32_t, Direction>, double> fraction;
  for (const HoseRequest& hose : hoses) {
    fraction[{hose.npg.value(), hose.qos, hose.region.value(), hose.direction}] = 1.0;
  }

  // Ascending realization order, always: min() commutes, but folding in a
  // fixed order keeps the floating-point story boring — results are
  // byte-comparable no matter where the assessments ran.
  for (std::size_t k = 0; k < realization_pipes.size(); ++k) {
    if (realization_pipes[k].empty()) continue;
    const std::vector<PipeApprovalResult>& pipe_results = per_realization[k];
    NETENT_EXPECTS(pipe_results.size() == realization_pipes[k].size());

    // Aggregate this realization: requested and approved per hose.
    std::map<std::tuple<std::uint32_t, QosClass, std::uint32_t, Direction>,
             std::pair<double, double>>
        sums;  // (requested, approved)
    for (const PipeApprovalResult& result : pipe_results) {
      const PipeRequest& pipe = result.request;
      auto& egress_sum =
          sums[{pipe.npg.value(), pipe.qos, pipe.src.value(), Direction::egress}];
      egress_sum.first += pipe.rate.value();
      egress_sum.second += result.approved.value();
      auto& ingress_sum =
          sums[{pipe.npg.value(), pipe.qos, pipe.dst.value(), Direction::ingress}];
      ingress_sum.first += pipe.rate.value();
      ingress_sum.second += result.approved.value();
    }
    for (auto& [key, frac] : fraction) {
      const auto it = sums.find(key);
      if (it == sums.end() || it->second.first <= kEps) continue;  // hose unused this time
      frac = std::min(frac, it->second.second / it->second.first);
    }
  }

  std::vector<HoseApprovalResult> results;
  results.reserve(hoses.size());
  ApprovalMetrics& m = metrics();
  m.hose_requests.add(hoses.size());
  for (const HoseRequest& hose : hoses) {
    const double frac =
        fraction.at({hose.npg.value(), hose.qos, hose.region.value(), hose.direction});
    const Gbps approved = hose.rate * frac;
    count_verdict(hose.rate, approved, m.hose_approved_full, m.hose_downgraded, m.hose_denied);
    m.hose_requested_mgbps.add(mgbps(hose.rate));
    m.hose_approved_mgbps.add(mgbps(approved));
    results.push_back({hose, approved});
  }
  return results;
}

double approval_percentage(std::span<const HoseApprovalResult> results, Direction direction) {
  double requested = 0.0;
  double approved = 0.0;
  for (const HoseApprovalResult& result : results) {
    if (result.request.direction != direction) continue;
    requested += result.request.rate.value();
    approved += result.approved.value();
  }
  return requested > 0.0 ? approved / requested : 1.0;
}

}  // namespace netent::approval
