// The rate store. `RateStore.*` drives it the lockstep way (publish, then
// read, arrivals applied by the read); `EventRateStore.*` drives its arrival
// path, deliver(), which the event-driven drill schedules one event per
// publish for.
#include "enforce/ratestore.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace netent::enforce {
namespace {

constexpr NpgId kSvc{1};
constexpr QosClass kQos = QosClass::c2_low;
constexpr auto kExact = RateStore::AggregateMode::kExactOrdered;
constexpr auto kFast = RateStore::AggregateMode::kFastDelta;

TEST(RateStore, AggregatesAcrossHosts) {
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(8), 100.0);
  store.publish(kSvc, kQos, HostId(2), Gbps(20), Gbps(15), 100.0);
  const ServiceRates rates = store.read(kSvc, kQos, 100.0);
  EXPECT_EQ(rates.total, Gbps(30));
  EXPECT_EQ(rates.conform, Gbps(23));
}

TEST(RateStore, VisibilityDelayHidesFreshSamples) {
  RateStore store(kExact, 10.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(10), 100.0);
  // At t=105 the sample from t=100 is still in flight (it arrives at 110).
  EXPECT_EQ(store.read(kSvc, kQos, 105.0).total, Gbps(0));
  // At t=110 it has arrived.
  EXPECT_EQ(store.read(kSvc, kQos, 110.0).total, Gbps(10));
}

TEST(RateStore, LatestVisibleSampleWins) {
  RateStore store(kExact, 5.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(10), 100.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(50), Gbps(40), 110.0);
  EXPECT_EQ(store.read(kSvc, kQos, 112.0).total, Gbps(10));  // second still in flight
  EXPECT_EQ(store.read(kSvc, kQos, 116.0).total, Gbps(50));  // second arrived at 115
}

TEST(RateStore, SeparatesServicesAndClasses) {
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(10), 1.0);
  store.publish(NpgId(2), kQos, HostId(1), Gbps(99), Gbps(99), 1.0);
  store.publish(kSvc, QosClass::c1_low, HostId(1), Gbps(77), Gbps(77), 1.0);
  EXPECT_EQ(store.read(kSvc, kQos, 1.0).total, Gbps(10));
  EXPECT_EQ(store.read(NpgId(2), kQos, 1.0).total, Gbps(99));
  EXPECT_EQ(store.read(kSvc, QosClass::c1_low, 1.0).total, Gbps(77));
}

TEST(RateStore, UnknownServiceIsZero) {
  RateStore store(kExact, 0.0);
  const ServiceRates rates = store.read(NpgId(42), kQos, 1.0);
  EXPECT_EQ(rates.total, Gbps(0));
  EXPECT_EQ(rates.conform, Gbps(0));
}

TEST(RateStore, OutOfOrderPublishRejected) {
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(1), Gbps(1), 100.0);
  EXPECT_THROW(store.publish(kSvc, kQos, HostId(1), Gbps(1), Gbps(1), 50.0),
               ContractViolation);
}

TEST(RateStore, ConformAboveTotalRejected) {
  RateStore store(kExact, 0.0);
  EXPECT_THROW(store.publish(kSvc, kQos, HostId(1), Gbps(1), Gbps(2), 1.0),
               ContractViolation);
}

TEST(RateStore, NegativeDelayRejected) {
  EXPECT_THROW(RateStore(kExact, -1.0), ContractViolation);
}

TEST(EventRateStore, LatestDeliveryPerHostWins) {
  RateStore store(kExact, 10.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(8), 100.0);
  store.publish(kSvc, kQos, HostId(2), Gbps(20), Gbps(15), 100.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(50), Gbps(40), 105.0);
  store.deliver(110.0);
  ServiceRates rates = store.read(kSvc, kQos, 110.0);
  EXPECT_EQ(rates.total, Gbps(30));
  EXPECT_EQ(rates.conform, Gbps(23));
  store.deliver(115.0);
  rates = store.read(kSvc, kQos, 115.0);
  EXPECT_EQ(rates.total, Gbps(70));
  EXPECT_EQ(rates.conform, Gbps(55));
}

// --- read-side delivery == arrival events == the lookback rule --------------

/// The historical lookback store, kept as the reference for the store's
/// visibility rule: a sample is visible at `now` when ts <= now - delay, the
/// latest visible sample per host counts, and hosts are summed in ascending
/// order.
class LookbackReference {
 public:
  explicit LookbackReference(double delay) : delay_(delay) {}

  void publish(std::uint32_t host, Gbps total, Gbps conform, double ts) {
    samples_[host].push_back({ts, total, conform});
  }

  [[nodiscard]] ServiceRates read(double now) const {
    ServiceRates rates{Gbps(0), Gbps(0)};
    for (const auto& [host, samples] : samples_) {  // ascending host order
      const Sample* visible = nullptr;
      for (const Sample& sample : samples) {
        if (sample.ts <= now - delay_) visible = &sample;
      }
      if (visible == nullptr) continue;
      rates.total += visible->total;
      rates.conform += visible->conform;
    }
    return rates;
  }

 private:
  struct Sample {
    double ts;
    Gbps total;
    Gbps conform;
  };
  double delay_;
  std::map<std::uint32_t, std::vector<Sample>> samples_;
};

/// One step of a scripted run; the script lists them in execution order.
struct Op {
  enum class Kind { partition, heal, publish, read };
  Kind kind;
  double at;
  std::uint32_t id = 0;  // publish: the host; read: the service (NpgId)
  Gbps total{0};
  Gbps conform{0};
};

/// Seven hosts publish every 5 s at two phases; after each host's turn the
/// service is read (so reads also land at publish times), and every 2.5 s an
/// unknown service is read too. A partition, when asked for, spans [20, 35).
std::vector<Op> script(bool with_partition) {
  std::vector<Op> ops;
  for (int step = 0; step <= 24; ++step) {
    const double t = 2.5 * step;
    if (with_partition && t == 20.0) ops.push_back({Op::Kind::partition, t});
    if (with_partition && t == 35.0) ops.push_back({Op::Kind::heal, t});
    for (std::uint32_t host = 1; host <= 7; ++host) {
      if ((static_cast<std::uint32_t>(step) + host) % 2 == 0) {
        ops.push_back({Op::Kind::publish, t, host, Gbps(0.37 * host + 0.11 * step),
                       Gbps(0.29 * host + 0.07 * step)});
      }
      ops.push_back({Op::Kind::read, t, kSvc.value()});
    }
    ops.push_back({Op::Kind::read, t, 42});
  }
  return ops;
}

/// The store's obs counts, flushed when the store is destroyed.
struct StoreCounts {
  std::uint64_t reads = 0;
  std::uint64_t empty_reads = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t partition_dropped = 0;
  std::uint64_t staleness_records = 0;
  double staleness_sum = 0.0;
  bool operator==(const StoreCounts&) const = default;
};

StoreCounts store_counts() {
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const obs::CounterSnapshot& counter : snapshot.counters) {
    counters[counter.name] = counter.value;
  }
  StoreCounts counts;
  counts.reads = counters["enforce.ratestore.reads"];
  counts.empty_reads = counters["enforce.ratestore.empty_reads"];
  counts.deliveries = counters["enforce.ratestore.deliveries"];
  counts.partition_dropped = counters["enforce.ratestore.partition_dropped"];
  for (const obs::HistogramSnapshot& histogram : snapshot.histograms) {
    if (histogram.name != "enforce.ratestore.read_staleness_seconds") continue;
    counts.staleness_records = histogram.total_count;
    counts.staleness_sum = histogram.sum;
  }
  return counts;
}

struct RunResult {
  std::vector<ServiceRates> reads;
  StoreCounts counts;
};

void apply_op(RateStore& store, const Op& op, std::vector<ServiceRates>& reads) {
  switch (op.kind) {
    case Op::Kind::partition:
      store.set_partitioned(true, op.at);
      break;
    case Op::Kind::heal:
      store.set_partitioned(false, op.at);
      break;
    case Op::Kind::publish:
      store.publish(kSvc, kQos, HostId(op.id), op.total, op.conform, op.at);
      break;
    case Op::Kind::read:
      reads.push_back(store.read(NpgId(op.id), kQos, op.at));
      break;
  }
}

/// Lockstep: arrivals are applied only by reads and partition changes.
RunResult run_read_side(RateStore::AggregateMode mode, double delay, const std::vector<Op>& ops) {
  obs::Registry::global().reset();
  RunResult result;
  {
    RateStore store(mode, delay);
    for (const Op& op : ops) apply_op(store, op, result.reads);
  }
  result.counts = store_counts();
  return result;
}

/// As the drill runs it: faults at control stratum, agents at agent
/// stratum, and each publish schedules its arrival at delivery stratum.
RunResult run_with_arrival_events(RateStore::AggregateMode mode, double delay,
                                  const std::vector<Op>& ops) {
  obs::Registry::global().reset();
  RunResult result;
  {
    RateStore store(mode, delay);
    sim::EventQueue queue;
    for (const Op& op : ops) {
      const bool fault = op.kind == Op::Kind::partition || op.kind == Op::Kind::heal;
      queue.schedule(op.at, fault ? sim::kControlStratum : sim::kAgentStratum, [&, op] {
        apply_op(store, op, result.reads);
        if (op.kind != Op::Kind::publish) return;
        queue.schedule_in(delay, sim::kDeliveryStratum,
                          [&store, &queue] { store.deliver(queue.now()); });
      });
    }
    queue.run_until(ops.back().at);
  }
  result.counts = store_counts();
  return result;
}

TEST(EventRateStore, ArrivalEventsMatchReadSideDeliveryAndLookbackRule) {
  for (const auto mode : {kExact, kFast}) {
    for (const double delay : {0.0, 10.0}) {
      for (const bool with_partition : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "fast=" << (mode == kFast) << " delay=" << delay
                                          << " partition=" << with_partition);
        const std::vector<Op> ops = script(with_partition);
        const RunResult read_side = run_read_side(mode, delay, ops);
        const RunResult events = run_with_arrival_events(mode, delay, ops);
        ASSERT_EQ(read_side.reads.size(), events.reads.size());
        for (std::size_t i = 0; i < read_side.reads.size(); ++i) {
          EXPECT_EQ(read_side.reads[i].total.value(), events.reads[i].total.value()) << i;
          EXPECT_EQ(read_side.reads[i].conform.value(), events.reads[i].conform.value()) << i;
        }
        EXPECT_TRUE(read_side.counts == events.counts);
        if constexpr (obs::kEnabled) {
          EXPECT_EQ(read_side.counts.reads, read_side.reads.size());
          EXPECT_GT(read_side.counts.empty_reads, 0u);
          EXPECT_GT(read_side.counts.deliveries, 0u);
          EXPECT_EQ(read_side.counts.partition_dropped > 0, with_partition);
        }
        if (mode != kExact || with_partition) continue;
        // Without faults the exact mode is the lookback store, bit for bit.
        LookbackReference reference(delay);
        std::size_t read = 0;
        for (const Op& op : ops) {
          if (op.kind == Op::Kind::publish) reference.publish(op.id, op.total, op.conform, op.at);
          if (op.kind != Op::Kind::read) continue;
          const ServiceRates expected =
              op.id == kSvc.value() ? reference.read(op.at) : ServiceRates{Gbps(0), Gbps(0)};
          EXPECT_EQ(read_side.reads[read].total.value(), expected.total.value()) << op.at;
          EXPECT_EQ(read_side.reads[read].conform.value(), expected.conform.value()) << op.at;
          ++read;
        }
      }
    }
  }
}

TEST(EventRateStore, FastDeltaMatchesExactWithinQuantum) {
  RateStore exact(kExact, 0.0);
  RateStore fast(kFast, 0.0);
  for (std::uint32_t host = 1; host <= 50; ++host) {
    const Gbps total(1.0 + 0.123 * host);
    const Gbps conform(0.5 + 0.061 * host);
    exact.publish(kSvc, kQos, HostId(host), total, conform, 1.0);
    fast.publish(kSvc, kQos, HostId(host), total, conform, 1.0);
  }
  exact.deliver(1.0);
  fast.deliver(1.0);
  const ServiceRates a = exact.read(kSvc, kQos, 1.0);
  const ServiceRates b = fast.read(kSvc, kQos, 1.0);
  // Each host's contribution is quantized to 0.001 Gbps in fast mode.
  EXPECT_NEAR(a.total.value(), b.total.value(), 50 * 5e-4);
  EXPECT_NEAR(a.conform.value(), b.conform.value(), 50 * 5e-4);
}

TEST(EventRateStore, FastDeltaReplacementLeavesNoResidue) {
  RateStore store(kFast, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(3.125), Gbps(1.25), 1.0);
  store.deliver(1.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(0), Gbps(0), 2.0);
  store.deliver(2.0);
  const ServiceRates rates = store.read(kSvc, kQos, 2.0);
  EXPECT_EQ(rates.total.value(), 0.0);
  EXPECT_EQ(rates.conform.value(), 0.0);
}

TEST(EventRateStore, PartitionDropsDeliveriesUntilHealed) {
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(10), Gbps(10), 1.0);
  store.deliver(1.0);
  store.set_partitioned(true, 2.0);
  EXPECT_TRUE(store.partitioned());
  // Lost: the partitioned store keeps serving the pre-partition aggregate.
  store.publish(kSvc, kQos, HostId(1), Gbps(99), Gbps(99), 2.0);
  store.publish(kSvc, kQos, HostId(2), Gbps(42), Gbps(42), 2.0);
  store.deliver(2.0);
  EXPECT_EQ(store.read(kSvc, kQos, 2.0).total, Gbps(10));
  store.set_partitioned(false, 3.0);
  EXPECT_EQ(store.read(kSvc, kQos, 3.0).total, Gbps(10));  // drops stay lost
  store.publish(kSvc, kQos, HostId(1), Gbps(7), Gbps(7), 3.0);
  store.deliver(3.0);
  EXPECT_EQ(store.read(kSvc, kQos, 3.0).total, Gbps(7));
}

TEST(EventRateStore, UnknownServiceIsZero) {
  // Nothing has arrived for the service yet, in either mode.
  for (const auto mode : {kExact, kFast}) {
    RateStore store(mode, 10.0);
    store.publish(kSvc, kQos, HostId(1), Gbps(5), Gbps(5), 1.0);
    store.deliver(5.0);
    const ServiceRates rates = store.read(kSvc, kQos, 5.0);
    EXPECT_EQ(rates.total, Gbps(0));
    EXPECT_EQ(rates.conform, Gbps(0));
  }
}

TEST(EventRateStore, NonMonotoneDeliveryRejected) {
  // Arrivals leave the in-flight ring in publish order, so publish times may
  // not decrease across hosts either.
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(1), Gbps(1), 100.0);
  EXPECT_THROW(store.publish(kSvc, kQos, HostId(2), Gbps(1), Gbps(1), 50.0),
               ContractViolation);
}

TEST(EventRateStore, ConformAboveTotalRejected) {
  // A rejected publish never enters the ring: the arrival applies only the
  // valid one.
  RateStore store(kExact, 0.0);
  store.publish(kSvc, kQos, HostId(1), Gbps(3), Gbps(2), 1.0);
  EXPECT_THROW(store.publish(kSvc, kQos, HostId(2), Gbps(1), Gbps(2), 1.0),
               ContractViolation);
  store.deliver(1.0);
  EXPECT_EQ(store.read(kSvc, kQos, 1.0).total, Gbps(3));
}

}  // namespace
}  // namespace netent::enforce
