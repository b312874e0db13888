// One §7.4 marking-algorithm cell on the discrete-event spine: a meter in a
// feedback loop with the network at a fixed non-conforming loss rate. Three
// event kinds per metering cycle:
//  * the traffic sample (kWorldStratum) — the fleet's conforming /
//    remarked / actually-sent rates implied by the meter's current ratio;
//  * the observation delivery (kDeliveryStratum) — the sampled rates reach
//    the meter observation_delay_cycles later, modeling the §5.1 rate
//    store's remote aggregation as propagation. Delay 0 delivers within the
//    same timestamp, before that cycle's metering (instant observation,
//    the Figures 23-24 setup); delay 1 is the one-cycle-stale loop of
//    Figure 25;
//  * the metering cycle (kAgentStratum) — Meter::update on whatever
//    observation has arrived.
//
// Time is measured in cycles (period 1). The driver is bit-compatible with
// the historical inline bench loops: tests/test_marking_cell.cpp holds the
// equality proofs.
#pragma once

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "common/units.h"
#include "enforce/meter.h"
#include "sim/event_queue.h"

namespace netent::sim {

struct MarkingCellConfig {
  double demand_gbps = 10000.0;   ///< §7.4: 10 Tbps service demand
  double entitled_gbps = 5000.0;  ///< §7.4: 5 Tbps entitlement
  double loss = 0.0;              ///< network drop fraction of non-conforming traffic
  int cycles = 40;
  /// Cycles between a traffic sample and the meter observing it (the rate
  /// store's aggregation lag). 0 = instant observation.
  double observation_delay_cycles = 0.0;
  /// Minimum send fraction of remarked traffic: dropped flows keep retrying
  /// (SYNs, retransmits), so the observed rate never collapses to zero.
  double retry_floor = 0.0;
};

/// Per-cycle sample handed to the observer before that cycle's metering.
struct MarkingCycle {
  int cycle;
  double conform_gbps;       ///< traffic currently marked conforming
  double nonconf_gbps;       ///< traffic the meter remarked non-conforming
  double nonconf_sent_gbps;  ///< of which actually on the wire (loss + retry floor)
};

/// Runs one cell to completion; `on_cycle` fires once per cycle at sample
/// time. The meter starts from its current state and is advanced in place.
inline void run_marking_cell(enforce::Meter& meter, const MarkingCellConfig& config,
                             const std::function<void(const MarkingCycle&)>& on_cycle) {
  NETENT_EXPECTS(config.demand_gbps >= 0.0);
  NETENT_EXPECTS(config.loss >= 0.0 && config.loss <= 1.0);
  NETENT_EXPECTS(config.cycles >= 1);
  NETENT_EXPECTS(config.observation_delay_cycles >= 0.0);
  NETENT_EXPECTS(config.retry_floor >= 0.0 && config.retry_floor <= 1.0);

  EventQueue queue;
  // What the meter acts on; until a delivery arrives the meter sees the
  // unthrottled demand (a fleet joining mid-overage).
  double observed_total = config.demand_gbps;
  double observed_conform = config.demand_gbps;
  int cycle = 0;

  PeriodicTimer traffic(queue, 1.0, kWorldStratum, [&] {
    const double conform = config.demand_gbps * meter.conform_ratio();
    const double nonconf = config.demand_gbps * meter.non_conform_ratio();
    const double sent = nonconf * std::max(1.0 - config.loss, config.retry_floor);
    if (on_cycle) on_cycle(MarkingCycle{cycle, conform, nonconf, sent});
    // The sample arrives as its own delivery event, carrying its rates.
    queue.schedule_in(config.observation_delay_cycles, kDeliveryStratum,
                      [&observed_total, &observed_conform, total = conform + sent, conform] {
                        observed_total = total;
                        observed_conform = conform;
                      });
    ++cycle;
  });
  PeriodicTimer metering(queue, 1.0, kAgentStratum, [&] {
    meter.update({Gbps(observed_total), Gbps(observed_conform), Gbps(config.entitled_gbps)});
  });

  traffic.start_at(0.0);
  metering.start_at(0.0);
  queue.run_until(static_cast<double>(config.cycles - 1));
  traffic.stop();
  metering.stop();
}

}  // namespace netent::sim
