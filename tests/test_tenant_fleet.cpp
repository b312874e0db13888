#include "spec/fleet.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
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
                      std::size_t threads) {
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
  return fleet.run();
}

TEST(TenantFleet, DecisionTranscriptIsIdenticalAcrossThreadCounts) {
  const topology::Topology topo = fleet_backbone();
  const FleetConfig config = small_fleet(topo.region_count());
  const FleetReport reference = run_fleet(topo, config, 1);
  ASSERT_GT(reference.decisions, 0u);
  ASSERT_GT(reference.rejected, 0u) << "fleet must contend for negotiation to be exercised";

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
