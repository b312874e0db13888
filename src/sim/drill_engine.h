// The event-driven drill engine: the §6 enforcement drill re-architected
// onto the sim::EventQueue spine.
//
// What is an event:
//  * the world sweep (kWorldStratum, every tick_seconds) — traffic
//    classification, the ACL stage, the bottleneck port, transport
//    adaptation, the application model, connection pools, and the recorded
//    DrillTick. Per-host work stays batched inside this one event, so the
//    event layer adds O(1) queue operations per host per period, not per
//    flow;
//  * per-agent publish and metering timers (kAgentStratum) — each HostAgent
//    owns two independent PeriodicTimers. With phase_jitter_seconds == 0
//    they all fire in phase with the sweep and the engine reproduces the
//    historical lockstep tick series bit-for-bit; with jitter > 0 each
//    agent's phases are seed-derived uniform offsets and the control plane
//    runs desynchronized, the way a real fleet does;
//  * rate-store propagation (kDeliveryStratum) — each publish timer fire
//    also schedules one arrival event store_visibility_delay_seconds later,
//    which applies the publishes then due (RateStore::deliver), so a
//    partition drops exactly the publishes that arrive while it lasts;
//  * control changes and faults (kControlStratum) — the entitlement cut,
//    ACL stage starts, and DrillFault injections are scheduled events that
//    land before the same-timestamp sweep.
//
// Bit-compat argument (phase_jitter == 0): the lockstep loop ran agents
// between transport adaptation and the application model; agents only
// mutate the classifier (read next tick), the meter, and the store (read at
// the next metering), so moving them after the full sweep at the same
// timestamp changes no recorded value. Publish/metering interleaving per
// host matches the old HostAgent::tick order through the stratum FIFO, and
// the RateStore's kExactOrdered mode sums hosts in the same ascending order
// as the historical lookback store, so aggregates are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/drill.h"
#include "sim/event_queue.h"

namespace netent::sim {

/// Event-layer accounting for one engine run (the bench's events/sec
/// throughput section reads these).
struct DrillEngineStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t ticks_recorded = 0;
};

class DrillEngine {
 public:
  DrillEngine(DrillConfig config, Rng rng);

  /// Runs the whole drill; one DrillTick per world sweep.
  [[nodiscard]] std::vector<DrillTick> run();

  /// Valid after run().
  [[nodiscard]] const DrillEngineStats& stats() const { return stats_; }

  [[nodiscard]] const DrillConfig& config() const { return config_; }

 private:
  DrillConfig config_;
  Rng rng_;
  DrillEngineStats stats_;
};

}  // namespace netent::sim
