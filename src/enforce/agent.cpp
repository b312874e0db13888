#include "enforce/agent.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace netent::enforce {

namespace {

/// Metering cycles happen on a seconds cadence per agent, so registry-handle
/// lookup is hoisted into one process-wide static; every agent shares the
/// counters (they are fleet aggregates, like the dashboards the §6 drill
/// reads) and adds its own counts to them in batches (flush_counts).
struct AgentMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& publishes = reg.counter("enforce.agent.publishes");
  obs::Counter& metering_cycles = reg.counter("enforce.agent.metering_cycles");
  obs::Counter& no_contract_cycles = reg.counter("enforce.agent.no_contract_cycles");
  obs::Counter& kernel_programs = reg.counter("enforce.agent.kernel_programs");
  obs::Counter& kernel_unprograms = reg.counter("enforce.agent.kernel_unprograms");
  obs::Counter& reprograms_suppressed = reg.counter("enforce.agent.reprograms_suppressed");
  obs::Counter& meter_updates = reg.counter("enforce.meter.updates");
  obs::Counter& meter_recoveries = reg.counter("enforce.meter.recoveries");
  obs::Counter& meter_clamps = reg.counter("enforce.meter.clamps");
  obs::Counter& meter_idle_cycles = reg.counter("enforce.meter.idle_cycles");
  obs::Gauge& conform_ratio = reg.gauge("enforce.agent.conform_ratio");
  obs::Histogram& cycle_seconds = reg.timer_histogram("enforce.agent.cycle_seconds");
};

AgentMetrics& metrics() {
  static AgentMetrics instance;
  return instance;
}

/// 1-in-16 cycles carry a wall-clock span: the latency histogram stays
/// representative while the steady_clock reads stay off 15/16ths of the
/// (already cheap) cycles.
constexpr std::uint64_t kCycleSampleMask = 0xF;

}  // namespace

HostAgent::HostAgent(HostId host, NpgId npg, QosClass qos, AgentConfig config,
                     std::unique_ptr<Meter> meter, EntitlementQuery query, RateStore& store,
                     BpfClassifier& classifier)
    : host_(host),
      npg_(npg),
      qos_(qos),
      config_(config),
      meter_(std::move(meter)),
      query_(std::move(query)),
      store_(store),
      classifier_(classifier) {
  NETENT_EXPECTS(meter_ != nullptr);
  NETENT_EXPECTS(query_ != nullptr);
  NETENT_EXPECTS(config_.metering_interval_seconds > 0.0);
  NETENT_EXPECTS(config_.publish_interval_seconds > 0.0);
}

HostAgent::~HostAgent() { flush_counts(); }

void HostAgent::observe_local(Gbps total, Gbps conform) {
  NETENT_EXPECTS(total >= Gbps(0));
  NETENT_EXPECTS(conform >= Gbps(0));
  local_total_ = total;
  local_conform_ = conform;
}

bool HostAgent::tick(double now_seconds) {
  if (now_seconds - last_publish_ >= config_.publish_interval_seconds) {
    publish_now(now_seconds);
  }
  if (now_seconds - last_metering_ >= config_.metering_interval_seconds) {
    run_metering(now_seconds);
    return true;
  }
  return false;
}

void HostAgent::publish_now(double now_seconds) {
  store_.publish(npg_, qos_, host_, local_total_, local_conform_, now_seconds);
  ++publishes_;
  last_publish_ = now_seconds;
}

void HostAgent::restart() {
  meter_->reset();
  programmed_ratio_ = -1.0;
  // Interval clocks restart too: a fresh process publishes and meters on its
  // next timer fire regardless of what the dead one last did.
  last_publish_ = -1e18;
  last_metering_ = -1e18;
}

void HostAgent::run_metering(double now_seconds) {
  last_metering_ = now_seconds;
  AgentMetrics& m = metrics();
  std::optional<obs::ScopedTimer> span;
  if ((cycle_count_ & kCycleSampleMask) == 0) span.emplace(m.cycle_seconds);
  if (++cycle_count_ % kObsFlushCycles == 0) flush_counts();
  ++metering_cycles_;

  const EntitlementAnswer answer = query_(npg_, qos_, now_seconds);
  if (!answer.found) {
    // No contract for this period: remove any stale kernel entry.
    ++no_contract_cycles_;
    if (programmed_ratio_ >= 0.0) ++kernel_unprograms_;
    classifier_.unprogram(npg_, qos_);
    programmed_ratio_ = -1.0;
    return;
  }
  const ServiceRates aggregate = store_.read(npg_, qos_, now_seconds);
  const double ratio = meter_->update(
      MeterInput{aggregate.total, aggregate.conform, answer.entitled_rate});
  m.conform_ratio.set(meter_->conform_ratio());

  // Hysteresis keeps the marked set stable at the metering equilibrium; the
  // endpoints (0 and 1) always program exactly.
  const bool endpoint = ratio <= 0.0 || ratio >= 1.0;
  if (programmed_ratio_ < 0.0 || endpoint ||
      std::fabs(ratio - programmed_ratio_) > config_.ratio_hysteresis) {
    classifier_.program(npg_, qos_, ratio);
    programmed_ratio_ = ratio;
    ++kernel_programs_;
  } else {
    ++reprograms_suppressed_;
  }
}

void HostAgent::flush_counts() {
  AgentMetrics& m = metrics();
  m.publishes.add(std::exchange(publishes_, 0));
  m.metering_cycles.add(std::exchange(metering_cycles_, 0));
  m.no_contract_cycles.add(std::exchange(no_contract_cycles_, 0));
  m.kernel_programs.add(std::exchange(kernel_programs_, 0));
  m.kernel_unprograms.add(std::exchange(kernel_unprograms_, 0));
  m.reprograms_suppressed.add(std::exchange(reprograms_suppressed_, 0));
  // The meter keeps plain tallies too, so its per-update cost stays
  // instrumentation-free; they flush as deltas.
  const MeterEvents& events = meter_->events();
  m.meter_updates.add(events.updates - flushed_events_.updates);
  m.meter_recoveries.add(events.recoveries - flushed_events_.recoveries);
  m.meter_clamps.add(events.clamps - flushed_events_.clamps);
  m.meter_idle_cycles.add(events.idle_cycles - flushed_events_.idle_cycles);
  flushed_events_ = events;
}

}  // namespace netent::enforce
