#include "approval/approval.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "topology/generator.h"

namespace netent::risk {
namespace {

using approval::ApprovalConfig;
using approval::ApprovalEngine;
using approval::PipeApprovalResult;
using approval::PipeAttainment;
using hose::PipeRequest;
using topology::RegionKind;
using topology::Router;
using topology::Topology;

Topology two_fiber_topo() {
  Topology topo;
  topo.add_region("a", RegionKind::data_center);
  topo.add_region("b", RegionKind::data_center);
  topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 990.0, 10.0);  // u=0.01
  topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 980.0, 20.0);  // u=0.02
  return topo;
}

TEST(SloVerifier, AttainmentMatchesAnalyticAvailability) {
  const Topology topo = two_fiber_topo();
  Router router(topo, 3);
  const ApprovalEngine engine(router, ApprovalConfig{});

  // 100 Gbps approved: survives any single fiber cut.
  std::vector<PipeApprovalResult> approvals(1);
  approvals[0].request = PipeRequest{NpgId(1), QosClass::c1_low, RegionId(0), RegionId(1),
                                     Gbps(100)};
  approvals[0].approved = Gbps(100);
  const auto attainments = engine.verify(approvals);
  ASSERT_EQ(attainments.size(), 1u);
  EXPECT_NEAR(attainments[0].achieved_availability, 1.0 - 0.01 * 0.02, 1e-9);
}

TEST(SloVerifier, ZeroApprovedPipesSkipped) {
  const Topology topo = two_fiber_topo();
  Router router(topo, 3);
  const ApprovalEngine engine(router, ApprovalConfig{});
  std::vector<PipeApprovalResult> approvals(2);
  approvals[0].request = PipeRequest{NpgId(1), QosClass::c1_low, RegionId(0), RegionId(1),
                                     Gbps(100)};
  approvals[0].approved = Gbps(0);
  approvals[1].request = PipeRequest{NpgId(2), QosClass::c1_low, RegionId(0), RegionId(1),
                                     Gbps(50)};
  approvals[1].approved = Gbps(50);
  const auto attainments = engine.verify(approvals);
  ASSERT_EQ(attainments.size(), 1u);
  EXPECT_EQ(attainments[0].request.npg, NpgId(2));
}

/// verify replays the engine's own placement order: a 150 G and a 100 G pipe
/// of one class on two 100 G fibers, both approved in full. Whichever is
/// placed first takes the capacity.
TEST(SloVerifier, ReplaysTheEnginesLowTouchOrder) {
  const Topology topo = two_fiber_topo();
  Router router(topo, 3);
  ApprovalEngine engine(router, ApprovalConfig{});
  std::vector<PipeApprovalResult> approvals(2);
  approvals[0].request = PipeRequest{NpgId(1), QosClass::c1_low, RegionId(0), RegionId(1),
                                     Gbps(150)};
  approvals[0].approved = Gbps(150);
  approvals[1].request = PipeRequest{NpgId(2), QosClass::c1_low, RegionId(0), RegionId(1),
                                     Gbps(100)};
  approvals[1].approved = Gbps(100);

  // Input order: the 150 G pipe is placed first and is admitted only while
  // both fibers are up; the 100 G pipe never gets its full rate.
  const auto input_order = engine.verify(approvals);
  ASSERT_EQ(input_order.size(), 2u);
  ASSERT_EQ(input_order[0].request.npg, NpgId(1));
  EXPECT_NEAR(input_order[0].achieved_availability, 0.99 * 0.98, 1e-9);
  EXPECT_NEAR(input_order[1].achieved_availability, 0.0, 1e-9);

  // Low-touch NPG 2 goes first: 100 G survives any single fiber cut, and
  // the 150 G pipe never fits beside it.
  engine.set_low_touch([](NpgId npg) { return npg == NpgId(2); });
  const auto low_touch_first = engine.verify(approvals);
  ASSERT_EQ(low_touch_first.size(), 2u);
  ASSERT_EQ(low_touch_first[0].request.npg, NpgId(2));
  EXPECT_NEAR(low_touch_first[0].achieved_availability, 1.0 - 0.01 * 0.02, 1e-9);
  EXPECT_NEAR(low_touch_first[1].achieved_availability, 0.0, 1e-9);
}

/// THE granting invariant: whatever the approval engine guarantees at SLO
/// target theta is achieved with availability >= theta when replayed against
/// the same scenario distribution.
class GrantingInvariant : public ::testing::TestWithParam<double> {};

TEST_P(GrantingInvariant, AchievedAtLeastPromised) {
  const double slo = GetParam();
  Rng rng(33);
  topology::GeneratorConfig gen;
  gen.region_count = 7;
  gen.max_parallel_fibers = 2;
  const Topology topo = topology::generate_backbone(gen, rng);
  Router router(topo, 3);

  // A demanding request mix across classes, large enough that the approval
  // sweep and the replay both fan out on the shared pool.
  std::vector<PipeRequest> pipes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    auto d = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
    if (d == s) d = (d + 1) % static_cast<std::uint32_t>(topo.region_count());
    const auto qos = static_cast<QosClass>(rng.uniform_int(kQosClassCount));
    pipes.push_back({NpgId(i), qos, RegionId(s), RegionId(d), Gbps(rng.uniform(50.0, 600.0))});
  }

  ApprovalConfig config;
  config.slo_availability = slo;
  config.scenarios.max_simultaneous = 2;
  const ApprovalEngine engine(router, config);
  const auto approvals = engine.pipe_approval(pipes);
  const std::size_t scenario_count = engine.scenarios().size();
  ASSERT_GT(pipes.size() * scenario_count, kFanOutCutoffPlacements);
  const auto replayed = static_cast<std::size_t>(
      std::count_if(approvals.begin(), approvals.end(),
                    [](const approval::PipeApprovalResult& a) { return a.approved > Gbps(0); }));
  ASSERT_GT(replayed * scenario_count, kFanOutCutoffPlacements);

  const auto attainments = engine.verify(approvals);
  for (const PipeAttainment& attainment : attainments) {
    EXPECT_GE(attainment.achieved_availability, slo - 1e-9)
        << "pipe " << attainment.request.npg << " promised " << slo << " but achieves "
        << attainment.achieved_availability;
  }
}

INSTANTIATE_TEST_SUITE_P(SloTargets, GrantingInvariant,
                         ::testing::Values(0.9, 0.99, 0.999, 0.9998));

}  // namespace
}  // namespace netent::risk
