#include "approval/negotiation.h"

#include <algorithm>

#include "common/check.h"

namespace netent::approval {

using hose::Direction;
using hose::HoseRequest;

HoseRequest apply_proposal(const CounterProposal& proposal) {
  HoseRequest request = proposal.original;
  request.rate = proposal.guaranteed;
  return request;
}

HoseRequest apply_proposal(const CounterProposal& proposal, const RegionAlternative& option) {
  HoseRequest request = proposal.original;
  request.region = option.region;
  request.rate = min(proposal.residual, option.guaranteed);
  return request;
}

HoseRequest apply_proposal(const CounterProposal& proposal, const QosAlternative& option) {
  HoseRequest request = proposal.original;
  request.qos = option.qos;
  request.rate = min(proposal.residual, option.guaranteed);
  return request;
}

NegotiationEngine::NegotiationEngine(const ApprovalEngine& approver, NegotiationConfig config)
    : approver_(approver), config_(config) {
  NETENT_EXPECTS(config_.min_useful_fraction > 0.0 && config_.min_useful_fraction <= 1.0);
}

Gbps NegotiationEngine::probe(const HoseRequest& request, Rng& rng) const {
  // Build a well-formed hose set around the probe: the counterpart direction
  // is spread evenly over the other regions so realizations exist.
  const std::size_t n = approver_.topo().region_count();
  NETENT_EXPECTS(n >= 2);
  std::vector<HoseRequest> probe_set{request};
  const Direction counterpart =
      request.direction == Direction::egress ? Direction::ingress : Direction::egress;
  const Gbps share = request.rate / static_cast<double>(n - 1);
  for (std::uint32_t r = 0; r < n; ++r) {
    if (RegionId(r) == request.region) continue;
    probe_set.push_back({request.npg, request.qos, RegionId(r), counterpart, share});
  }
  return approver_.hose_approval(probe_set, rng).front().approved;
}

std::vector<CounterProposal> NegotiationEngine::negotiate(
    std::span<const HoseApprovalResult> results, Rng& rng) const {
  std::vector<CounterProposal> proposals;
  proposals.reserve(results.size());

  for (const HoseApprovalResult& result : results) {
    CounterProposal proposal;
    proposal.original = result.request;
    proposal.guaranteed = result.approved;
    proposal.residual = max(Gbps(0), result.request.rate - result.approved);
    if (proposal.fully_approved()) {
      proposals.push_back(std::move(proposal));
      continue;
    }
    const Gbps useful = proposal.residual * config_.min_useful_fraction;

    // Option (b): alternative regions for the residual.
    for (std::uint32_t r = 0; r < approver_.topo().region_count(); ++r) {
      if (RegionId(r) == result.request.region) continue;
      HoseRequest moved = result.request;
      moved.region = RegionId(r);
      moved.rate = proposal.residual;
      const Gbps guaranteed = probe(moved, rng);
      if (guaranteed >= useful) proposal.region_options.push_back({RegionId(r), guaranteed});
    }
    std::sort(proposal.region_options.begin(), proposal.region_options.end(),
              [](const RegionAlternative& a, const RegionAlternative& b) {
                return a.guaranteed > b.guaranteed;
              });
    if (proposal.region_options.size() > config_.max_region_options) {
      proposal.region_options.resize(config_.max_region_options);
    }

    // Option (c): lower QoS classes for the residual. Lower classes compete
    // with less premium reservations, so a volume rejected at a premium
    // class may pass below when the premium bands are the contended ones.
    for (const QosClass qos : qos_priority_order()) {
      if (!higher_priority(result.request.qos, qos)) continue;  // only lower classes
      HoseRequest demoted = result.request;
      demoted.qos = qos;
      demoted.rate = proposal.residual;
      const Gbps guaranteed = probe(demoted, rng);
      if (guaranteed >= useful) proposal.qos_options.push_back({qos, guaranteed});
    }
    std::sort(proposal.qos_options.begin(), proposal.qos_options.end(),
              [](const QosAlternative& a, const QosAlternative& b) {
                return a.guaranteed > b.guaranteed;
              });
    if (proposal.qos_options.size() > config_.max_qos_options) {
      proposal.qos_options.resize(config_.max_qos_options);
    }

    proposals.push_back(std::move(proposal));
  }
  return proposals;
}

}  // namespace netent::approval
