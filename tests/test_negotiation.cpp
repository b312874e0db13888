#include "approval/negotiation.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "topology/generator.h"

namespace netent::approval {
namespace {

using hose::Direction;
using hose::HoseRequest;
using topology::RegionKind;
using topology::Router;
using topology::Topology;

/// Three regions: a<->b is thin (50), a<->c and b<->c are fat (500). A big
/// egress request at a toward b is under-approved; c is the viable
/// alternative.
Topology asymmetric_topo() {
  Topology topo;
  topo.add_region("a", RegionKind::data_center);
  topo.add_region("b", RegionKind::data_center);
  topo.add_region("c", RegionKind::data_center);
  topo.add_fiber(RegionId(0), RegionId(1), Gbps(50), 5000.0, 10.0);
  topo.add_fiber(RegionId(0), RegionId(2), Gbps(500), 5000.0, 10.0);
  topo.add_fiber(RegionId(1), RegionId(2), Gbps(500), 5000.0, 10.0);
  return topo;
}

ApprovalConfig relaxed_config() {
  ApprovalConfig config;
  config.slo_availability = 0.95;
  config.realizations = 4;
  return config;
}

TEST(Negotiation, FullyApprovedGetsTrivialProposal) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, NegotiationConfig{});
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(0), Direction::egress, Gbps(40)}, Gbps(40)}};
  Rng rng(1);
  const auto proposals = engine.negotiate(results, rng);
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_TRUE(proposals[0].fully_approved());
  EXPECT_TRUE(proposals[0].region_options.empty());
  EXPECT_TRUE(proposals[0].qos_options.empty());
}

TEST(Negotiation, UnderApprovalProducesResidualAndOptions) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, NegotiationConfig{});
  // Requested 400 egress at region b; only 300 approved.
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(300)}};
  Rng rng(2);
  const auto proposals = engine.negotiate(results, rng);
  ASSERT_EQ(proposals.size(), 1u);
  const CounterProposal& proposal = proposals[0];
  EXPECT_FALSE(proposal.fully_approved());
  EXPECT_EQ(proposal.guaranteed, Gbps(300));
  EXPECT_EQ(proposal.residual, Gbps(100));
  // Some alternative region must be able to carry the 100 residual.
  ASSERT_FALSE(proposal.region_options.empty());
  EXPECT_GE(proposal.region_options.front().guaranteed.value(), 50.0);
}

TEST(Negotiation, RegionOptionsSortedByGuarantee) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, NegotiationConfig{});
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(600)}, Gbps(200)}};
  Rng rng(3);
  const auto proposals = engine.negotiate(results, rng);
  const auto& options = proposals[0].region_options;
  for (std::size_t i = 1; i < options.size(); ++i) {
    EXPECT_GE(options[i - 1].guaranteed.value(), options[i].guaranteed.value());
  }
}

TEST(Negotiation, QosOptionsOnlyLowerClasses) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig config;
  config.min_useful_fraction = 0.1;
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, config);
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c2_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(250)}};
  Rng rng(4);
  const auto proposals = engine.negotiate(results, rng);
  for (const QosAlternative& option : proposals[0].qos_options) {
    EXPECT_TRUE(higher_priority(QosClass::c2_low, option.qos))
        << "counter-proposal must demote, not promote";
  }
}

TEST(Negotiation, MinUsefulFractionFiltersWeakOptions) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig strict;
  strict.min_useful_fraction = 0.999;  // only near-complete alternatives
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, strict);
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(2000)}, Gbps(500)}};
  Rng rng(5);
  const auto proposals = engine.negotiate(results, rng);
  // Residual 1500 cannot be fully guaranteed anywhere on this topology.
  EXPECT_TRUE(proposals[0].region_options.empty());
}

TEST(Negotiation, OptionCountsCapped) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig config;
  config.max_region_options = 1;
  config.min_useful_fraction = 0.1;
  const ApprovalEngine approver(router, relaxed_config());
  const NegotiationEngine engine(approver, config);
  const std::vector<HoseApprovalResult> results{
      {{NpgId(1), QosClass::c1_low, RegionId(1), Direction::egress, Gbps(400)}, Gbps(200)}};
  Rng rng(6);
  const auto proposals = engine.negotiate(results, rng);
  EXPECT_LE(proposals[0].region_options.size(), 1u);
}

TEST(Negotiation, InvalidConfigRejected) {
  const Topology topo = asymmetric_topo();
  Router router(topo, 3);
  NegotiationConfig bad;
  bad.min_useful_fraction = 0.0;
  const ApprovalEngine approver(router, relaxed_config());
  EXPECT_THROW(NegotiationEngine(approver, bad), ContractViolation);
}

}  // namespace
}  // namespace netent::approval
