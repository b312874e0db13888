// Golden regression tests for the event-driven drill engine.
//
// The compat hashes below were captured from the lockstep engine BEFORE the
// event refactor, over the full 17-field DrillTick series (FNV-1a over the
// bit patterns). The event engine at phase_jitter == 0 must reproduce them
// bit-for-bit — this pins the ordering arguments (strata, delivery-before-
// read, agents-after-sweep) to the actual historical numbers.
//
// The jittered-phase tests don't compare against the lockstep numbers (the
// fleet is deliberately desynchronized). They pin determinism (the same seed
// must produce byte-identical series across repeated runs) and history: the
// jittered goldens below were captured from the engine as it stood before
// the slot-indexed event spine and the FIFO store deliveries, together with
// the queue's scheduled/executed/cancelled counts, so a spine that reordered
// or dropped events in the desynchronized mode perfbench runs fails here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/drill_engine.h"

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
    const double fields[] = {t.t_seconds,          t.acl_drop_fraction,
                             t.entitled,           t.demand,
                             t.total_rate,         t.conform_rate,
                             t.conform_loss_ratio, t.nonconform_loss_ratio,
                             t.conform_rtt_ms,     t.nonconform_rtt_ms,
                             t.conform_syn_per_s,  t.nonconform_syn_per_s,
                             t.nonconform_rst_per_s, t.conform_fin_per_s,
                             t.read_latency_ms,    t.write_latency_ms,
                             t.block_error_rate};
    for (const double f : fields) hash = fnv1a(hash, std::bit_cast<std::uint64_t>(f));
  }
  return hash;
}

DrillConfig golden1_config() {
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

DrillConfig golden2_config() {
  DrillConfig c;
  c.host_count = 16;
  c.duration_seconds = 20.0 * 60.0;
  c.tick_seconds = 5.0;
  c.entitled_cut_seconds = 5.0 * 60.0;
  c.acl_stages = {{8.0 * 60.0, 0.25}, {14.0 * 60.0, 1.0}, {17.0 * 60.0, 0.0}};
  c.demand_ramp_end_seconds = 10.0 * 60.0;
  c.flows_per_host = 8;
  c.stateful_meter = false;
  c.marking = enforce::MarkingMode::flow_based;
  c.transport = DrillConfig::Transport::aimd;
  return c;
}

DrillConfig golden3_config() {
  DrillConfig c;  // defaults, with tick 10 crossing the 5 s publish interval
  c.host_count = 60;
  c.tick_seconds = 10.0;
  c.duration_seconds = 40.0 * 60.0;
  return c;
}

// Captured from the pre-refactor lockstep engine (commit with the
// `step`-loop DrillSim::run): the compat contract.
constexpr std::uint64_t kGolden1 = 0x0dda39df726223dbULL;
constexpr std::uint64_t kGolden2 = 0x4ef44ce259333aa2ULL;
constexpr std::uint64_t kGolden3 = 0x63c2db38657667d1ULL;

TEST(DrillGolden, CompatStatefulHostEwmaMatchesLockstep) {
  DrillEngine sim(golden1_config(), Rng(20220822));
  EXPECT_EQ(hash_ticks(sim.run()), kGolden1);
}

TEST(DrillGolden, CompatStatelessFlowAimdThreadedMatchesLockstep) {
  DrillEngine sim(golden2_config(), Rng(7));
  EXPECT_EQ(hash_ticks(sim.run()), kGolden2);
}

TEST(DrillGolden, CompatCoarseTickFinePublishMatchesLockstep) {
  DrillEngine sim(golden3_config(), Rng(42));
  EXPECT_EQ(hash_ticks(sim.run()), kGolden3);
}

DrillConfig jittered_config() {
  DrillConfig c = golden1_config();
  c.phase_jitter_seconds = 4.0;  // desynchronize within a publish period
  return c;
}

TEST(DrillGolden, JitteredPhasesDivergeFromLockstep) {
  // Sanity: jitter actually changes the dynamics (otherwise the
  // determinism tests below would be vacuous).
  DrillEngine sim(jittered_config(), Rng(20220822));
  EXPECT_NE(hash_ticks(sim.run()), kGolden1);
}

TEST(DrillGolden, JitteredPhasesAreRunToRunDeterministic) {
  DrillEngine a(jittered_config(), Rng(20220822));
  DrillEngine b(jittered_config(), Rng(20220822));
  EXPECT_EQ(hash_ticks(a.run()), hash_ticks(b.run()));
}

/// A run's tick series hash plus the event spine's three counts.
struct EventGolden {
  std::uint64_t ticks_hash;
  std::uint64_t scheduled;
  std::uint64_t executed;
  std::uint64_t cancelled;
};

EventGolden run_golden(const DrillConfig& config, std::uint64_t seed) {
  DrillEngine engine(config, Rng(seed));
  const std::uint64_t hash = hash_ticks(engine.run());
  const DrillEngineStats& stats = engine.stats();
  return {hash, stats.events_scheduled, stats.events_executed, stats.events_cancelled};
}

void expect_golden(const EventGolden& actual, const EventGolden& expected) {
  EXPECT_EQ(actual.ticks_hash, expected.ticks_hash);
  EXPECT_EQ(actual.scheduled, expected.scheduled);
  EXPECT_EQ(actual.executed, expected.executed);
  EXPECT_EQ(actual.cancelled, expected.cancelled);
}

/// Flow-based marking, stateless meter and AIMD transport, with publishes
/// that reach the store in the same timestamp (zero visibility delay).
DrillConfig jittered_flow_config() {
  DrillConfig c = golden2_config();
  c.phase_jitter_seconds = 3.0;
  c.store_visibility_delay_seconds = 0.0;
  return c;
}

/// Every fault kind on a jittered fleet, with a delivery delay that is not a
/// multiple of the tick, so deliveries land between sweeps and some fall due
/// inside the partition.
DrillConfig jittered_fault_config() {
  DrillConfig c = golden1_config();
  c.phase_jitter_seconds = 5.0;
  c.store_visibility_delay_seconds = 7.5;
  for (std::size_t h = 0; h < 6; ++h) {
    c.faults.push_back({10.0 * 60.0 + 1.5 * static_cast<double>(h),
                        DrillFault::Kind::agent_crash, h});
    c.faults.push_back({13.0 * 60.0, DrillFault::Kind::agent_restart, h});
  }
  c.faults.push_back({15.0 * 60.0 + 2.0, DrillFault::Kind::store_partition, 0});
  c.faults.push_back({17.0 * 60.0, DrillFault::Kind::store_heal, 0});
  c.faults.push_back({19.0 * 60.0, DrillFault::Kind::host_down, 20});
  c.faults.push_back({19.0 * 60.0, DrillFault::Kind::host_down, 21});
  c.faults.push_back({24.0 * 60.0 + 3.0, DrillFault::Kind::host_up, 20});
  return c;
}

constexpr EventGolden kJitteredHost{0x25569a92a7730ae3ULL, 21964, 21867, 49};
constexpr EventGolden kJitteredFlow{0x9de36dbbcfefb9a6ULL, 9845, 9812, 33};
constexpr EventGolden kJitteredFaults{0xb13864dc5a080142ULL, 21003, 20900, 63};

TEST(DrillGolden, JitteredHostBasedMatchesHistory) {
  expect_golden(run_golden(jittered_config(), 20220822), kJitteredHost);
}

TEST(DrillGolden, JitteredFlowBasedZeroDelayMatchesHistory) {
  expect_golden(run_golden(jittered_flow_config(), 7), kJitteredFlow);
}

TEST(DrillGolden, JitteredFaultsMatchHistory) {
  expect_golden(run_golden(jittered_fault_config(), 42), kJitteredFaults);
}

TEST(DrillGolden, EngineReportsEventStats) {
  const DrillConfig c = golden1_config();
  DrillEngine engine(c, Rng(20220822));
  const auto ticks = engine.run();
  const DrillEngineStats& stats = engine.stats();
  EXPECT_EQ(stats.ticks_recorded, ticks.size());
  // At minimum: one sweep per tick, plus per-host publish and delivery
  // events each publish interval.
  EXPECT_GT(stats.events_executed, ticks.size() * c.host_count);
  EXPECT_GE(stats.events_scheduled, stats.events_executed);
}

}  // namespace
}  // namespace netent::sim
