#include "sim/tcp.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/drill_engine.h"

namespace netent::sim {
namespace {

double steady_fraction(double loss, TcpAggregateConfig config = {}) {
  TcpAggregate tcp(config);
  double fraction = 1.0;
  for (int i = 0; i < 500; ++i) fraction = tcp.observe_loss(loss);
  return fraction;
}

TEST(TcpAggregate, FullRateWithoutLoss) {
  EXPECT_NEAR(steady_fraction(0.0), 1.0, 1e-9);
}

TEST(TcpAggregate, SteadyStateMatchesMapFixedPoint) {
  // The discrete map f' = (f + a(1-f))(1 - cp) has fixed point
  // a(1-cp) / (1 - (1-a)(1-cp)), valid away from the floor and cap.
  const TcpAggregateConfig config;
  for (const double loss : {0.05, 0.1, 0.2}) {
    const double keep = 1.0 - config.multiplicative_cut * loss;
    const double expected =
        config.additive_gain * keep / (1.0 - (1.0 - config.additive_gain) * keep);
    EXPECT_NEAR(steady_fraction(loss), expected, 1e-9) << "loss=" << loss;
  }
}

TEST(TcpAggregate, MonotoneDecreasingInLoss) {
  double previous = 1.1;
  for (const double loss : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    const double fraction = steady_fraction(loss);
    EXPECT_LE(fraction, previous + 1e-9) << "loss=" << loss;
    previous = fraction;
  }
}

TEST(TcpAggregate, RetryFloorHolds) {
  EXPECT_NEAR(steady_fraction(1.0), TcpAggregateConfig{}.retry_floor, 1e-9);
}

TEST(TcpAggregate, RecoversAfterLossClears) {
  TcpAggregate tcp;
  for (int i = 0; i < 100; ++i) tcp.observe_loss(1.0);
  EXPECT_NEAR(tcp.send_fraction(), TcpAggregateConfig{}.retry_floor, 1e-9);
  for (int i = 0; i < 200; ++i) tcp.observe_loss(0.0);
  EXPECT_NEAR(tcp.send_fraction(), 1.0, 1e-6);
}

TEST(TcpAggregate, ResetRestoresFullRate) {
  TcpAggregate tcp;
  tcp.observe_loss(1.0);
  tcp.reset();
  EXPECT_DOUBLE_EQ(tcp.send_fraction(), 1.0);
}

TEST(TcpAggregate, InvalidConfigRejected) {
  TcpAggregateConfig bad;
  bad.additive_gain = 0.0;
  EXPECT_THROW(TcpAggregate{bad}, ContractViolation);
  bad = TcpAggregateConfig{};
  bad.retry_floor = 1.0;
  EXPECT_THROW(TcpAggregate{bad}, ContractViolation);
  TcpAggregate tcp;
  EXPECT_THROW((void)tcp.observe_loss(1.5), ContractViolation);
}

TEST(DrillWithAimdTransport, StillEnforcesEntitlement) {
  // The drill's headline behaviour must hold under the AIMD transport too:
  // conforming rate near the entitlement during the 100% stage, conforming
  // loss ~0 throughout.
  DrillConfig config;
  config.host_count = 60;
  config.tick_seconds = 10.0;
  config.transport = DrillConfig::Transport::aimd;
  DrillEngine sim(config, Rng(42));
  const auto ticks = sim.run();

  double conform_sum = 0.0;
  std::size_t samples = 0;
  for (const auto& tick : ticks) {
    EXPECT_LT(tick.conform_loss_ratio, 0.01);
    if (tick.t_seconds >= 150.0 * 60 && tick.t_seconds < 168.0 * 60) {
      conform_sum += tick.conform_rate;
      ++samples;
    }
  }
  EXPECT_NEAR(conform_sum / static_cast<double>(samples), 1000.0, 200.0);
}

}  // namespace
}  // namespace netent::sim
