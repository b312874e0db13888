#include "enforce/switchport.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"

namespace netent::enforce {

namespace {

/// Per-queue delivered/dropped volume tallies, integer milli-Gbps so the
/// totals merge deterministically. The queue set is fixed (kQueueCount), so
/// the handles are resolved once per process.
struct PortMetrics {
  obs::Counter& transmits;
  std::array<obs::Counter*, kQueueCount> delivered{};
  std::array<obs::Counter*, kQueueCount> dropped{};

  PortMetrics() : transmits(obs::Registry::global().counter("enforce.switch.transmits")) {
    auto& reg = obs::Registry::global();
    for (std::size_t q = 0; q < kQueueCount; ++q) {
      const std::string base = "enforce.switch.q" + std::to_string(q);
      delivered[q] = &reg.counter(base + ".delivered_mgbps");
      dropped[q] = &reg.counter(base + ".dropped_mgbps");
    }
  }
};

PortMetrics& metrics() {
  static PortMetrics instance;
  return instance;
}

}  // namespace

PriorityQueueSwitch::PriorityQueueSwitch(Gbps capacity, double service_quantum_ms,
                                         double max_queue_delay_ms)
    : capacity_(capacity),
      service_quantum_ms_(service_quantum_ms),
      max_queue_delay_ms_(max_queue_delay_ms) {
  NETENT_EXPECTS(capacity > Gbps(0));
  NETENT_EXPECTS(service_quantum_ms > 0.0);
  NETENT_EXPECTS(max_queue_delay_ms > 0.0);
}

std::array<QueueOutcome, kQueueCount> PriorityQueueSwitch::transmit(
    std::span<const double> offered_per_queue) const {
  NETENT_EXPECTS(offered_per_queue.size() == kQueueCount);

  std::array<QueueOutcome, kQueueCount> outcomes{};
  double remaining = capacity_.value();
  double served_cumulative = 0.0;

  for (std::size_t q = 0; q < kQueueCount; ++q) {
    const double offered = offered_per_queue[q];
    NETENT_EXPECTS(offered >= 0.0);
    const double delivered = std::min(offered, remaining);
    outcomes[q].delivered_gbps = delivered;
    outcomes[q].dropped_gbps = offered - delivered;
    remaining -= delivered;
    served_cumulative += delivered;

    // Queueing delay grows with the utilization seen by this priority level
    // (its own service share plus everything served before it). An M/M/1-
    // style load factor capped by the buffer bound.
    const double utilization = std::min(served_cumulative / capacity_.value(), 0.999);
    double delay = service_quantum_ms_ * utilization / (1.0 - utilization);
    if (outcomes[q].dropped_gbps > 0.0) delay = max_queue_delay_ms_;  // full buffer
    outcomes[q].queue_delay_ms = std::min(delay, max_queue_delay_ms_);
  }

  if constexpr (obs::kEnabled) {
    PortMetrics& m = metrics();
    m.transmits.add();
    for (std::size_t q = 0; q < kQueueCount; ++q) {
      // Most queues are idle most ticks; skip the zero adds.
      if (outcomes[q].delivered_gbps > 0.0) {
        m.delivered[q]->add(
            static_cast<std::uint64_t>(std::llround(outcomes[q].delivered_gbps * 1e3)));
      }
      if (outcomes[q].dropped_gbps > 0.0) {
        m.dropped[q]->add(
            static_cast<std::uint64_t>(std::llround(outcomes[q].dropped_gbps * 1e3)));
      }
    }
  }
  return outcomes;
}

}  // namespace netent::enforce
