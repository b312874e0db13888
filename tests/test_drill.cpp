#include "sim/drill_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/check.h"

namespace netent::sim {
namespace {

DrillConfig fast_config() {
  DrillConfig config;
  config.host_count = 60;
  config.tick_seconds = 10.0;
  return config;
}

/// Mean of a tick field over [t0, t1).
template <class Getter>
double window_mean(const std::vector<DrillTick>& ticks, double t0, double t1, Getter get) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const DrillTick& tick : ticks) {
    if (tick.t_seconds >= t0 && tick.t_seconds < t1) {
      sum += get(tick);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

class DrillFixture : public ::testing::Test {
 protected:
  static const std::vector<DrillTick>& ticks() {
    static const std::vector<DrillTick> result = [] {
      DrillEngine sim(fast_config(), Rng(42));
      return sim.run();
    }();
    return result;
  }
};

TEST_F(DrillFixture, ConformingLossStaysNearZero) {
  // Figure 11: conforming traffic is protected throughout the drill.
  for (const DrillTick& tick : ticks()) {
    EXPECT_LT(tick.conform_loss_ratio, 0.01) << "t=" << tick.t_seconds;
  }
}

TEST_F(DrillFixture, NonConformingLossTracksAclStages) {
  // Loss ratio steps through ~0.125, ~0.5, ~1.0 with the ACL schedule.
  const auto loss = [](const DrillTick& t) { return t.nonconform_loss_ratio; };
  EXPECT_NEAR(window_mean(ticks(), 80.0 * 60, 95.0 * 60, loss), 0.125, 0.05);
  EXPECT_NEAR(window_mean(ticks(), 115.0 * 60, 130.0 * 60, loss), 0.50, 0.07);
  EXPECT_NEAR(window_mean(ticks(), 150.0 * 60, 165.0 * 60, loss), 1.0, 0.05);
}

TEST_F(DrillFixture, TotalRateMatchesConformBeforeServiceGetsBusy) {
  // Figure 12: before the demand crosses the reduced entitlement, total ==
  // conforming (no marking).
  const auto total = [](const DrillTick& t) { return t.total_rate; };
  const auto conform = [](const DrillTick& t) { return t.conform_rate; };
  const double early_total = window_mean(ticks(), 10.0 * 60, 25.0 * 60, total);
  const double early_conform = window_mean(ticks(), 10.0 * 60, 25.0 * 60, conform);
  EXPECT_NEAR(early_total, early_conform, early_total * 0.02);
}

TEST_F(DrillFixture, ConformRateConvergesToEntitlementUnderFullDrop) {
  // Figure 12: at the 100% stage the delivered/observed rate matches the
  // entitled 1 Tbps.
  const double late_conform = window_mean(
      ticks(), 155.0 * 60, 168.0 * 60, [](const DrillTick& t) { return t.conform_rate; });
  EXPECT_NEAR(late_conform, 1000.0, 150.0);
}

TEST_F(DrillFixture, RatesRecoverAfterRollback) {
  // After ACL removal the total rate returns to (still-marked but undropped)
  // demand levels above the entitlement.
  const double post = window_mean(ticks(), 195.0 * 60, 209.0 * 60,
                                  [](const DrillTick& t) { return t.total_rate; });
  const double demand_end = fast_config().demand_end.value();
  EXPECT_GT(post, demand_end * 0.8);
}

TEST_F(DrillFixture, ConformingRttUnaffected) {
  // Figure 13: conforming RTT ~ base throughout.
  const DrillConfig config = fast_config();
  for (const DrillTick& tick : ticks()) {
    EXPECT_LT(tick.conform_rtt_ms, config.base_rtt_ms + 8.0);
  }
}

TEST_F(DrillFixture, NonConformingRttElevatedUnderCongestion) {
  const DrillConfig config = fast_config();
  const double mid = window_mean(ticks(), 115.0 * 60, 130.0 * 60,
                                 [](const DrillTick& t) { return t.nonconform_rtt_ms; });
  EXPECT_GT(mid, config.base_rtt_ms + 1.0);
}

TEST_F(DrillFixture, SynRateRisesWithDrops) {
  // Figure 14: SYN transmissions of the non-conforming side rise with the
  // drop percentage and fall back after rollback.
  const auto syn = [](const DrillTick& t) { return t.nonconform_syn_per_s; };
  const double stage125 = window_mean(ticks(), 80.0 * 60, 95.0 * 60, syn);
  const double stage100 = window_mean(ticks(), 150.0 * 60, 165.0 * 60, syn);
  const double after = window_mean(ticks(), 195.0 * 60, 209.0 * 60, syn);
  EXPECT_GT(stage100, stage125);
  EXPECT_LT(after, stage100);
}

TEST_F(DrillFixture, ReadLatencyGrowsThenDropsAtFullLoss) {
  // Figure 15: read latency grows with drops but collapses at 100% (host
  // failover takes dead hosts out of the read path).
  const DrillConfig config = fast_config();
  const auto read = [](const DrillTick& t) { return t.read_latency_ms; };
  const double stage50 = window_mean(ticks(), 115.0 * 60, 130.0 * 60, read);
  const double stage100_late = window_mean(ticks(), 155.0 * 60, 168.0 * 60, read);
  EXPECT_GT(stage50, config.read_base_latency_ms * 1.2);
  EXPECT_LT(stage100_late, stage50);
  EXPECT_NEAR(stage100_late, config.read_base_latency_ms,
              config.read_base_latency_ms * 0.6);
}

TEST_F(DrillFixture, WriteLatencySevereEvenAtModestLoss) {
  // Figure 16: writes are stateful; impact shows up already at 12.5%.
  const DrillConfig config = fast_config();
  const double stage125 = window_mean(ticks(), 80.0 * 60, 95.0 * 60,
                                      [](const DrillTick& t) { return t.write_latency_ms; });
  EXPECT_GT(stage125, config.write_base_latency_ms * 1.1);
}

TEST_F(DrillFixture, BlockErrorsPeakAtFullLoss) {
  // Figure 17.
  const auto err = [](const DrillTick& t) { return t.block_error_rate; };
  const double stage50 = window_mean(ticks(), 115.0 * 60, 130.0 * 60, err);
  const double stage100 = window_mean(ticks(), 145.0 * 60, 165.0 * 60, err);
  const double before = window_mean(ticks(), 0.0, 60.0 * 60, err);
  EXPECT_LT(before, 0.01);
  EXPECT_GT(stage100, stage50);
  EXPECT_GT(stage100, 0.05);
}

TEST(DrillSim, StatelessMeterOvershootsEntitlement) {
  // The §7.4 contrast reproduced inside the full drill: with the stateless
  // meter, the average conforming rate during the 100% stage stays above
  // the entitlement.
  DrillConfig config = fast_config();
  config.stateful_meter = false;
  DrillEngine sim(config, Rng(42));
  const auto ticks = sim.run();
  double sum = 0.0;
  std::size_t n = 0;
  for (const DrillTick& tick : ticks) {
    if (tick.t_seconds >= 150.0 * 60 && tick.t_seconds < 168.0 * 60) {
      sum += tick.conform_rate;
      ++n;
    }
  }
  const double avg = sum / static_cast<double>(n);
  EXPECT_GT(avg, 1200.0) << "stateless marking should fail to hold 1 Tbps";
}

TEST(DrillSim, DeterministicForSeed) {
  DrillConfig config = fast_config();
  config.duration_seconds = 40.0 * 60.0;
  DrillEngine a(config, Rng(7));
  DrillEngine b(config, Rng(7));
  const auto ta = a.run();
  const auto tb = b.run();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].total_rate, tb[i].total_rate);
    EXPECT_DOUBLE_EQ(ta[i].conform_rate, tb[i].conform_rate);
  }
}

TEST(DrillSim, ZeroFailoverDelayKeepsHealthyHostsServingReads) {
  // A zero delay fails a dead host over on the tick it dies; hosts that are
  // alive keep serving reads, so ACL drops still show in read latency.
  DrillConfig config = fast_config();
  config.failover_delay_seconds = 0.0;
  DrillEngine sim(config, Rng(42));
  const auto ticks = sim.run();
  const double stage50 = window_mean(ticks, 115.0 * 60, 130.0 * 60,
                                     [](const DrillTick& t) { return t.read_latency_ms; });
  EXPECT_GT(stage50, config.read_base_latency_ms * 1.2);
}

TEST(DrillSim, InvalidConfigRejected) {
  DrillConfig config = fast_config();
  config.host_count = 1;
  EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation);
  config = fast_config();
  config.acl_stages = {{10.0, 1.5}};
  EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation);
  config = fast_config();
  config.write_session_tau_seconds = 0.0;
  EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation);
  config = fast_config();
  config.failover_delay_seconds = -1.0;
  EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation);

  // Non-finite times: an infinite duration used to pass (inf > tick) and
  // then overflow the tick count; the store's deliveries need one finite,
  // non-negative delay.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double DrillConfig::*> times = {
      &DrillConfig::duration_seconds,          &DrillConfig::tick_seconds,
      &DrillConfig::metering_interval_seconds, &DrillConfig::publish_interval_seconds,
      &DrillConfig::store_visibility_delay_seconds, &DrillConfig::phase_jitter_seconds};
  for (double DrillConfig::*field : times) {
    for (const double bad : {kInf, -kInf, nan}) {
      config = fast_config();
      config.*field = bad;
      EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation) << bad;
    }
  }
  config = fast_config();
  config.store_visibility_delay_seconds = -1.0;
  EXPECT_THROW(DrillEngine(config, Rng(1)), ContractViolation);
  config = fast_config();
  config.store_visibility_delay_seconds = 0.0;
  EXPECT_NO_THROW(DrillEngine(config, Rng(1)));
}

}  // namespace
}  // namespace netent::sim
