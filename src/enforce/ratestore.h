// Simulated distributed key-value store for rate aggregation (§5.1: "Each
// agent publishes flow rate information periodically using Meta's internal
// distributed key-value store. These rates are aggregated remotely across
// the entire service and read by the agent periodically."). The relevant
// distributed-systems property is staleness, modeled as propagation: a
// publish waits in flight until it arrives visibility_delay later, and an
// arrived publish replaces its host's visible sample. A sample is therefore
// visible at `now` iff `published + delay <= now`, the latest visible sample
// per host counts, and hosts are summed in ascending order.
//
// Arrivals are applied by deliver(now) and, first thing, by every read, so
// lockstep callers (publish and read from one loop) need no event queue. The
// event-driven drill schedules one arrival event per publish, so a partition
// drops exactly the publishes that arrive while it lasts.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace netent::enforce {

/// Service-aggregate rates as seen by an agent.
struct ServiceRates {
  Gbps total;
  Gbps conform;
};

/// Keeps one sample per host, the latest arrived, plus the publishes in
/// flight, whose buffer is reused once it has grown to the most ever in
/// flight at once.
///
/// Aggregation modes:
///  * kExactOrdered — the double sum in ascending host order, memoized by a
///    version stamp: O(hosts) on the first read after an arrival, O(1) for
///    the repeat reads of a lockstep metering sweep. The historical lookback
///    store's sum order, so its sums are bit-identical to that store's on
///    the same visible samples; the drill's compatibility mode.
///  * kFastDelta — the aggregate kept incrementally in integer milli-Gbps
///    (integer adds commute, so arrival order cannot change it): O(1) per
///    read and per arrival, the scale mode of the jittered drill. Quantizes
///    each host's contribution to 0.001 Gbps.
///
/// Reads, empty reads, deliveries and partition drops are counted in plain
/// integers and flushed to the obs registry every kObsFlushReads reads and
/// on destruction.
class RateStore {
 public:
  enum class AggregateMode : std::uint8_t { kExactOrdered, kFastDelta };

  static constexpr std::uint64_t kObsFlushReads = 64;

  /// `visibility_delay_seconds` models publish + aggregation + fan-out lag.
  RateStore(AggregateMode mode, double visibility_delay_seconds);
  ~RateStore();

  RateStore(const RateStore&) = delete;
  RateStore& operator=(const RateStore&) = delete;

  /// A host publishes its measured per-service rates. Publish times may not
  /// decrease, which keeps the publishes in flight in arrival order.
  void publish(NpgId npg, QosClass qos, HostId host, Gbps total, Gbps conform,
               double now_seconds);

  /// Applies every publish that has arrived by `now_seconds`. While
  /// partitioned, arrivals are lost (dropped, counted), exactly like writes
  /// that never reach a partitioned KV replica.
  void deliver(double now_seconds);

  /// Aggregate over everything arrived by `now_seconds`. Records the control
  /// loop's real staleness (now - newest arrived publish timestamp).
  [[nodiscard]] ServiceRates read(NpgId npg, QosClass qos, double now_seconds);

  /// Partition fault at `now_seconds`: readers keep seeing the pre-partition
  /// aggregate until the heal. Arrivals before `now_seconds` are applied
  /// under the old state and arrivals at it under the new one: a fault lands
  /// before same-time arrivals, as the drill's control stratum runs before
  /// its delivery stratum.
  void set_partitioned(bool partitioned, double now_seconds);
  [[nodiscard]] bool partitioned() const { return partitioned_; }

 private:
  using ServiceKey = std::pair<std::uint32_t, QosClass>;
  struct HostSample {
    double published;
    double total_gbps;
    double conform_gbps;
  };
  struct InFlight {
    ServiceKey service;
    std::uint32_t host;
    HostSample sample;
  };
  struct Service {
    std::map<std::uint32_t, HostSample> hosts;  // ordered: exact-mode sum order
    std::int64_t milli_total = 0;               // fast-mode integer aggregate
    std::int64_t milli_conform = 0;
    double newest_published = -1.0;
    std::uint64_t version = 0;
    std::uint64_t cached_version = ~std::uint64_t{0};  // exact-mode memo
    ServiceRates cached{Gbps(0), Gbps(0)};
  };

  void apply(const InFlight& publish);
  void flush_counts();

  AggregateMode mode_;
  double visibility_delay_;
  bool partitioned_ = false;
  std::map<ServiceKey, Service> services_;
  std::vector<InFlight> in_flight_;  // arrival order; [0, head_) already applied
  std::size_t head_ = 0;
  double last_published_ = -std::numeric_limits<double>::infinity();
  // Counts not yet flushed to the obs registry.
  std::uint64_t reads_ = 0;
  std::uint64_t empty_reads_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t partition_dropped_ = 0;
};

}  // namespace netent::enforce
