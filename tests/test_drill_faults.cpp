// Runtime fault injection in the event-driven drill: agent crash/restart,
// rate-store partition/heal, and machine death feeding the application's
// read failover. The §6 invariant under test throughout: conforming traffic
// is never harmed, because enforcement state lives in the kernel classifier
// and survives the control plane being down.
#include "sim/drill_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace netent::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFF;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t hash_ticks(const std::vector<DrillTick>& ticks) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const DrillTick& t : ticks) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.total_rate));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.conform_rate));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.read_latency_ms));
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t.nonconform_loss_ratio));
  }
  return hash;
}

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

/// G1-shaped drill: cut at 8 min, ACL 50% at 12 min and 100% at 20 min.
DrillConfig drill_config() {
  DrillConfig c;
  c.host_count = 24;
  c.duration_seconds = 30.0 * 60.0;
  c.tick_seconds = 5.0;
  c.entitled_cut_seconds = 8.0 * 60.0;
  c.acl_stages = {{12.0 * 60.0, 0.5}, {20.0 * 60.0, 1.0}};
  c.demand_ramp_end_seconds = 15.0 * 60.0;
  c.flows_per_host = 10;
  return c;
}

DrillConfig crash_config() {
  DrillConfig c = drill_config();
  // Half the fleet's agents die mid-drill (during the 50% drop stage, after
  // marking has converged) and come back two minutes into the 100% stage.
  for (std::size_t h = 0; h < 12; ++h) {
    c.faults.push_back({14.0 * 60.0, DrillFault::Kind::agent_crash, h});
    c.faults.push_back({22.0 * 60.0, DrillFault::Kind::agent_restart, h});
  }
  return c;
}

TEST(DrillFaults, ConformingTrafficProtectedThroughAgentCrashRestart) {
  DrillEngine sim(crash_config(), Rng(20220822));
  const auto ticks = sim.run();
  // The §6 invariant: the kernel classifier persists across the agent
  // outage, so conforming traffic is never harmed — not while the agents
  // are down, not through their restart.
  for (const DrillTick& tick : ticks) {
    EXPECT_LT(tick.conform_loss_ratio, 0.01) << "t=" << tick.t_seconds;
  }
  // Enforcement also persists: while the agents are down the marked share
  // keeps flowing as non-conforming (total > conforming) and keeps being
  // dropped at the scheduled ACL fraction.
  const auto marked_excess = [](const DrillTick& t) { return t.total_rate - t.conform_rate; };
  EXPECT_GT(window_mean(ticks, 14.5 * 60, 19.5 * 60, marked_excess), 100.0);
  const auto loss = [](const DrillTick& t) { return t.nonconform_loss_ratio; };
  EXPECT_NEAR(window_mean(ticks, 14.5 * 60, 19.5 * 60, loss), 0.5, 0.07);
}

TEST(DrillFaults, ControlLoopReconvergesAfterRestart) {
  DrillEngine sim(crash_config(), Rng(20220822));
  const auto ticks = sim.run();
  // After the restarted meters re-learn the overage, the conforming rate
  // settles back at the entitlement under the 100% drop stage.
  const double late_conform = window_mean(
      ticks, 26.0 * 60, 29.5 * 60, [](const DrillTick& t) { return t.conform_rate; });
  EXPECT_NEAR(late_conform, 1000.0, 250.0);
}

TEST(DrillFaults, FaultRunsAreDeterministic) {
  DrillEngine a(crash_config(), Rng(20220822));
  DrillEngine b(crash_config(), Rng(20220822));
  EXPECT_EQ(hash_ticks(a.run()), hash_ticks(b.run()));
}

TEST(DrillFaults, StorePartitionFreezesButNeverHarmsConforming) {
  DrillConfig c = drill_config();
  c.faults.push_back({12.0 * 60.0, DrillFault::Kind::store_partition, 0});
  c.faults.push_back({20.0 * 60.0, DrillFault::Kind::store_heal, 0});
  DrillEngine sim(c, Rng(20220822));
  const auto ticks = sim.run();
  for (const DrillTick& tick : ticks) {
    EXPECT_LT(tick.conform_loss_ratio, 0.01) << "t=" << tick.t_seconds;
  }
  // With the store healed and the 100% stage active, the loop converges to
  // the entitlement as usual.
  const double late_conform = window_mean(
      ticks, 26.0 * 60, 29.5 * 60, [](const DrillTick& t) { return t.conform_rate; });
  EXPECT_NEAR(late_conform, 1000.0, 250.0);
}

TEST(DrillFaults, HostDeathFeedsReadFailover) {
  DrillConfig c;
  c.host_count = 24;
  c.duration_seconds = 15.0 * 60.0;
  c.tick_seconds = 5.0;
  c.entitled_cut_seconds = 40.0 * 60.0;  // never: isolate the fault signal
  c.acl_stages.clear();
  c.flows_per_host = 10;
  c.faults.push_back({4.0 * 60.0, DrillFault::Kind::host_down, 3});
  c.faults.push_back({10.0 * 60.0, DrillFault::Kind::host_up, 3});
  DrillEngine sim(c, Rng(20220822));
  const auto ticks = sim.run();
  const auto read = [](const DrillTick& t) { return t.read_latency_ms; };
  // Dead host in the read path until failover_delay (120 s) elapses:
  // latency elevated...
  EXPECT_GT(window_mean(ticks, 4.05 * 60, 6.0 * 60, read), c.read_base_latency_ms * 1.2);
  // ...then reads fail over away from it and latency returns to base...
  EXPECT_NEAR(window_mean(ticks, 6.5 * 60, 9.5 * 60, read), c.read_base_latency_ms,
              c.read_base_latency_ms * 0.05);
  // ...and the machine's traffic share comes back once it returns.
  const auto total = [](const DrillTick& t) { return t.total_rate; };
  EXPECT_GT(window_mean(ticks, 12.0 * 60, 14.5 * 60, total),
            window_mean(ticks, 7.0 * 60, 9.5 * 60, total));
}

TEST(DrillFaults, InvalidFaultsRejected) {
  DrillConfig c = drill_config();
  c.faults.push_back({-1.0, DrillFault::Kind::agent_crash, 0});
  EXPECT_THROW(DrillEngine(c, Rng(1)), ContractViolation);
  c = drill_config();
  c.faults.push_back({10.0, DrillFault::Kind::agent_crash, c.host_count});
  EXPECT_THROW(DrillEngine(c, Rng(1)), ContractViolation);
}

}  // namespace
}  // namespace netent::sim
