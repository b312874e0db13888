// Automated bandwidth negotiation (§8 "Bandwidth Negotiation"). When the
// approval engine cannot guarantee a request in full, the manual back-and-
// forth between the network team and the service is replaced by generated
// counter-proposals:
//   (a) accept the admittable volume (partial approval, rest unguaranteed);
//   (b) move the residual demand to alternative regions where capacity and
//       failure exposure allow a guarantee (probed through the approval
//       engine);
//   (c) keep the volume but demote the residual to a lower QoS class that
//       still passes the SLO check.
#pragma once

#include <span>
#include <vector>

#include "approval/approval.h"
#include "common/rng.h"

namespace netent::approval {

struct RegionAlternative {
  RegionId region;
  Gbps guaranteed;  ///< what the residual would get if moved here
};

struct QosAlternative {
  QosClass qos = QosClass::c4_high;
  Gbps guaranteed;  ///< what the residual would get at this class
};

struct CounterProposal {
  hose::HoseRequest original;
  Gbps guaranteed;          ///< option (a): the admittable volume
  Gbps residual;            ///< demand left unguaranteed under option (a)
  std::vector<RegionAlternative> region_options;  ///< option (b), best first
  std::vector<QosAlternative> qos_options;        ///< option (c), best first

  [[nodiscard]] bool fully_approved() const { return residual <= Gbps(kRateEpsGbps); }
};

/// Derives the follow-up request a proposal option stands for, so callers
/// (operators, the spec::PolicyEngine) act on counter-proposals instead of
/// re-deriving hose fields by hand.
///
/// Option (a), accept the partial grant: the original hose at the guaranteed
/// volume.
[[nodiscard]] hose::HoseRequest apply_proposal(const CounterProposal& proposal);
/// Option (b), move the residual: the original hose re-homed to the
/// alternative region, at the residual volume capped by what that region can
/// guarantee.
[[nodiscard]] hose::HoseRequest apply_proposal(const CounterProposal& proposal,
                                               const RegionAlternative& option);
/// Option (c), demote the residual: the original hose at the lower QoS
/// class, at the residual volume capped by what that class can guarantee.
[[nodiscard]] hose::HoseRequest apply_proposal(const CounterProposal& proposal,
                                               const QosAlternative& option);

struct NegotiationConfig {
  /// Only propose alternatives that guarantee at least this fraction of the
  /// residual demand.
  double min_useful_fraction = 0.5;
  std::size_t max_region_options = 3;
  std::size_t max_qos_options = 2;
};

class NegotiationEngine {
 public:
  /// Probes run through `approver`, which must outlive the engine.
  NegotiationEngine(const ApprovalEngine& approver, NegotiationConfig config);

  /// Generates a counter-proposal for every input approval result (fully
  /// approved requests get a trivial proposal with no residual). The probes
  /// run against the approver's topology and SLO.
  [[nodiscard]] std::vector<CounterProposal> negotiate(
      std::span<const HoseApprovalResult> results, Rng& rng) const;

 private:
  [[nodiscard]] Gbps probe(const hose::HoseRequest& request, Rng& rng) const;

  const ApprovalEngine& approver_;
  NegotiationConfig config_;
};

}  // namespace netent::approval
