// In-network enforcement (§5.1, "Network enforcement"): a switch egress port
// with strict-priority queues keyed by DSCP. When there is enough capacity
// every packet is transmitted irrespective of entitlements; under congestion
// the non-conforming queue (lowest priority) is hit first. The fluid model
// drains queues top-down and reports per-queue delivered/dropped rates and a
// queueing-delay estimate.
#pragma once

#include <array>
#include <span>

#include "common/units.h"
#include "enforce/dscp.h"

namespace netent::enforce {

struct QueueOutcome {
  double delivered_gbps = 0.0;
  double dropped_gbps = 0.0;
  double queue_delay_ms = 0.0;  ///< queueing only (propagation excluded)
};

class PriorityQueueSwitch {
 public:
  /// `service_quantum_ms` scales the queueing-delay estimate;
  /// `max_queue_delay_ms` models finite buffers.
  explicit PriorityQueueSwitch(Gbps capacity, double service_quantum_ms = 0.05,
                               double max_queue_delay_ms = 20.0);

  /// Drains `offered_per_queue` (indexed by queue, size kQueueCount) in
  /// strict priority order (queue 0 first). Work-conserving: capacity unused
  /// by premium queues serves the lower ones, so absent congestion even
  /// non-conforming traffic is delivered in full. The outcomes are returned
  /// by value (the queue count is a compile-time constant), so a per-tick
  /// caller allocates nothing.
  [[nodiscard]] std::array<QueueOutcome, kQueueCount> transmit(
      std::span<const double> offered_per_queue) const;

  [[nodiscard]] Gbps capacity() const { return capacity_; }

 private:
  Gbps capacity_;
  double service_quantum_ms_;
  double max_queue_delay_ms_;
};

}  // namespace netent::enforce
