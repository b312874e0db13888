#include "enforce/ratestore.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace netent::enforce {

namespace {

struct StoreMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& reads = reg.counter("enforce.ratestore.reads");
  obs::Counter& empty_reads = reg.counter("enforce.ratestore.empty_reads");
  obs::Counter& deliveries = reg.counter("enforce.ratestore.deliveries");
  obs::Counter& partition_dropped = reg.counter("enforce.ratestore.partition_dropped");
  /// Age of the freshest sample an aggregate read actually used (one record
  /// per read, the max over publishers): how stale the metering control loop
  /// really runs, visibility delay included. Sim-time-valued, so the bucket
  /// counts are deterministic.
  obs::Histogram& staleness = reg.histogram(
      "enforce.ratestore.read_staleness_seconds",
      std::initializer_list<double>{0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 60.0, 120.0});
};

StoreMetrics& metrics() {
  static StoreMetrics instance;
  return instance;
}

}  // namespace

RateStore::RateStore(AggregateMode mode, double visibility_delay_seconds)
    : mode_(mode), visibility_delay_(visibility_delay_seconds) {
  NETENT_EXPECTS(visibility_delay_seconds >= 0.0);
}

RateStore::~RateStore() { flush_counts(); }

void RateStore::publish(NpgId npg, QosClass qos, HostId host, Gbps total, Gbps conform,
                        double now_seconds) {
  NETENT_EXPECTS(total >= Gbps(0));
  NETENT_EXPECTS(conform >= Gbps(0));
  NETENT_EXPECTS(conform <= total + Gbps(1e-9));
  NETENT_EXPECTS(now_seconds >= last_published_);
  last_published_ = now_seconds;
  // Reclaim the applied prefix once it is half the buffer: amortized O(1)
  // moves per publish, and no allocation once the buffer has grown.
  if (head_ != 0 && 2 * head_ >= in_flight_.size()) {
    in_flight_.erase(in_flight_.begin(), in_flight_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  in_flight_.push_back(InFlight{{npg.value(), qos},
                                host.value(),
                                HostSample{now_seconds, total.value(), conform.value()}});
}

void RateStore::deliver(double now_seconds) {
  for (; head_ != in_flight_.size(); ++head_) {
    if (in_flight_[head_].sample.published + visibility_delay_ > now_seconds) return;
    apply(in_flight_[head_]);
  }
}

void RateStore::apply(const InFlight& publish) {
  if (partitioned_) {
    ++partition_dropped_;
    return;
  }
  Service& service = services_[publish.service];
  auto [it, inserted] = service.hosts.try_emplace(publish.host);
  HostSample& sample = it->second;
  if (!inserted) {
    service.milli_total -= std::llround(sample.total_gbps * 1e3);
    service.milli_conform -= std::llround(sample.conform_gbps * 1e3);
  }
  sample = publish.sample;
  service.milli_total += std::llround(sample.total_gbps * 1e3);
  service.milli_conform += std::llround(sample.conform_gbps * 1e3);
  service.newest_published = std::max(service.newest_published, sample.published);
  ++service.version;
  ++deliveries_;
}

ServiceRates RateStore::read(NpgId npg, QosClass qos, double now_seconds) {
  deliver(now_seconds);
  if (++reads_ == kObsFlushReads) flush_counts();
  const auto service_it = services_.find({npg.value(), qos});
  if (service_it == services_.end()) {
    ++empty_reads_;
    return ServiceRates{Gbps(0), Gbps(0)};
  }
  Service& service = service_it->second;
  metrics().staleness.record(now_seconds - service.newest_published);
  if (mode_ == AggregateMode::kFastDelta) {
    return ServiceRates{Gbps(static_cast<double>(service.milli_total) * 1e-3),
                        Gbps(static_cast<double>(service.milli_conform) * 1e-3)};
  }
  if (service.cached_version != service.version) {
    // Ascending-host-id double sum: the summation order of the historical
    // lookback store (its host maps were ordered too), so compat-mode reads
    // are bit-identical to it.
    ServiceRates rates{Gbps(0), Gbps(0)};
    for (const auto& [host, sample] : service.hosts) {
      rates.total += Gbps(sample.total_gbps);
      rates.conform += Gbps(sample.conform_gbps);
    }
    service.cached = rates;
    service.cached_version = service.version;
  }
  return service.cached;
}

void RateStore::set_partitioned(bool partitioned, double now_seconds) {
  // Arrivals strictly before the fault land under the old state.
  deliver(std::nextafter(now_seconds, -std::numeric_limits<double>::infinity()));
  partitioned_ = partitioned;
}

void RateStore::flush_counts() {
  StoreMetrics& m = metrics();
  m.reads.add(std::exchange(reads_, 0));
  m.empty_reads.add(std::exchange(empty_reads_, 0));
  m.deliveries.add(std::exchange(deliveries_, 0));
  m.partition_dropped.add(std::exchange(partition_dropped_, 0));
}

}  // namespace netent::enforce
