// Golden regression tests for the event-driven drill engine.
//
// The compat hashes below were captured from the lockstep engine BEFORE the
// event refactor, over the full 17-field DrillTick series (FNV-1a over the
// bit patterns). The event engine at phase_jitter == 0 must reproduce them
// bit-for-bit — this pins the ordering arguments (strata, delivery-before-
// read, agents-after-sweep) to the actual historical numbers.
//
// The jittered-phase tests don't compare against the lockstep numbers (the
// fleet is deliberately desynchronized); they pin determinism instead: the
// same seed must produce byte-identical series across repeated runs.

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
