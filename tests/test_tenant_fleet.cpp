#include "spec/fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "service/admission.h"
#include "topology/generator.h"

namespace netent::spec {
namespace {

topology::Topology fleet_backbone() {
  Rng rng(7);
  topology::GeneratorConfig config;
  config.region_count = 6;
  config.base_capacity = Gbps(100);  // tight: heavy premium tenants contend
  config.max_parallel_fibers = 2;
  return topology::generate_backbone(config, rng);
}

FleetConfig small_fleet(std::size_t regions) {
  FleetConfig config;
  config.tenants = 64;
  config.rounds = 4;
  config.regions = regions;
  config.heavy_every = 3;  // coprime to 4: heavies cycle all strategies
  config.heavy_rate_gbps = 60.0;
  config.base_rate_lo_gbps = 1.0;
  config.base_rate_hi_gbps = 4.0;
  config.seed = 2022;
  config.slo_availability = 0.99;
  return config;
}

FleetReport run_fleet(const topology::Topology& topo, const FleetConfig& fleet_config,
                      std::size_t threads,
                      service::AdmissionController::ReplayStats* replay = nullptr) {
  service::AdmissionConfig config;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.threads = threads;
  config.seed = 23;
  config.background = false;
  config.admit_min_fraction = 1.0;
  config.attach_counter_proposals = true;
  service::AdmissionController controller(topo, config);
  TenantFleet fleet(controller, fleet_config);
  const FleetReport report = fleet.run();
  if (replay != nullptr) *replay = controller.replay_stats();
  return report;
}

/// The 256-tenant fleet's serial transcript fingerprint. Every negotiation
/// probe routes over the router's PathStore, so a change to path compilation
/// or placement that moves any decision moves it, even one that moves every
/// thread count alike.
constexpr std::uint64_t kFleetTranscriptGolden = 16421428570986477805ULL;

TEST(TenantFleet, DecisionTranscriptIsIdenticalAcrossThreadCounts) {
  const topology::Topology topo = fleet_backbone();
  // Grown past small_fleet, with fewer heavies (still coprime to 4), until
  // an edit's replay crosses the fan-out cutoff: the 2- and 4-thread runs
  // then really fan out on the pool. small_fleet's own replays stay under it.
  FleetConfig config = small_fleet(topo.region_count());
  config.tenants = 256;
  config.heavy_every = 11;
  service::AdmissionController::ReplayStats replay;
  const FleetReport reference = run_fleet(topo, config, 1, &replay);
  ASSERT_GT(reference.decisions, 0u);
  ASSERT_GT(reference.rejected, 0u) << "fleet must contend for negotiation to be exercised";
  EXPECT_GE(replay.largest, kFanOutCutoffPlacements);
  EXPECT_EQ(reference.transcript_fingerprint, kFleetTranscriptGolden);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const FleetReport report = run_fleet(topo, config, threads);
    EXPECT_EQ(report.transcript_fingerprint, reference.transcript_fingerprint)
        << "threads=" << threads;
    EXPECT_EQ(report.decisions, reference.decisions);
    EXPECT_EQ(report.admitted, reference.admitted);
    EXPECT_EQ(report.rejected, reference.rejected);
    EXPECT_EQ(report.resized, reference.resized);
    EXPECT_EQ(report.released, reference.released);
    EXPECT_EQ(report.resubmits, reference.resubmits);
    EXPECT_EQ(report.waits, reference.waits);
    EXPECT_EQ(report.give_ups, reference.give_ups);
  }
}

TEST(TenantFleet, AllNegotiationStrategiesAreExercised) {
  const topology::Topology topo = fleet_backbone();
  const FleetReport report = run_fleet(topo, small_fleet(topo.region_count()), 2);
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    EXPECT_GT(report.strategy_resolutions[s], 0u)
        << to_string(static_cast<Strategy>(s)) << " never resolved a rejection";
  }
  EXPECT_GT(report.resubmits, 0u);
  EXPECT_GT(report.waits, 0u);
  EXPECT_GT(report.give_ups, 0u);
}

TEST(TenantFleet, SameSeedSameReportDifferentSeedDifferentTranscript) {
  const topology::Topology topo = fleet_backbone();
  const FleetConfig config = small_fleet(topo.region_count());
  const FleetReport a = run_fleet(topo, config, 2);
  const FleetReport b = run_fleet(topo, config, 2);
  EXPECT_EQ(a.transcript_fingerprint, b.transcript_fingerprint);
  EXPECT_EQ(a.decisions, b.decisions);

  FleetConfig reseeded = config;
  reseeded.seed = 2023;
  const FleetReport c = run_fleet(topo, reseeded, 2);
  EXPECT_NE(c.transcript_fingerprint, a.transcript_fingerprint);
}

TEST(TenantFleet, LatencySamplesCoverEveryDecision) {
  const topology::Topology topo = fleet_backbone();
  const FleetReport report = run_fleet(topo, small_fleet(topo.region_count()), 1);
  EXPECT_EQ(report.decision_latency_us.size(), report.decisions);
  for (const double us : report.decision_latency_us) EXPECT_GE(us, 0.0);
}

}  // namespace
}  // namespace netent::spec
