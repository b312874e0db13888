#include "sim/drill_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/dscp.h"
#include "enforce/meter.h"
#include "enforce/ratestore.h"
#include "enforce/switchport.h"
#include "obs/metrics.h"
#include "sim/connections.h"
#include "sim/event_queue.h"

namespace netent::sim {

namespace {

using namespace netent::enforce;

constexpr NpgId kColdstorage{0};
constexpr double kEps = 1e-9;

/// Drill-wide tallies, bumped once per world sweep. The volume counters are
/// accumulated as milli-gbit of traffic (rate x tick, rounded).
struct DrillMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& runs = reg.counter("sim.drill.runs");
  obs::Counter& ticks = reg.counter("sim.drill.ticks");
  obs::Counter& flows_classified = reg.counter("sim.drill.flows_classified");
  obs::Counter& flows_marked = reg.counter("sim.drill.flows_marked");
  obs::Counter& conform_sent_mgbit = reg.counter("sim.drill.conform_sent_mgbit");
  obs::Counter& nonconf_sent_mgbit = reg.counter("sim.drill.nonconf_sent_mgbit");
  obs::Counter& acl_dropped_mgbit = reg.counter("sim.drill.acl_dropped_mgbit");
  obs::Counter& port_conf_dropped_mgbit = reg.counter("sim.drill.port_conf_dropped_mgbit");
  obs::Counter& port_nonconf_dropped_mgbit = reg.counter("sim.drill.port_nonconf_dropped_mgbit");
};

DrillMetrics& drill_metrics() {
  static DrillMetrics instance;
  return instance;
}

/// Fault-injection tallies (sim.faults.*), one per DrillFault kind applied.
struct FaultMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& agent_crashes = reg.counter("sim.faults.agent_crashes");
  obs::Counter& agent_restarts = reg.counter("sim.faults.agent_restarts");
  obs::Counter& store_partitions = reg.counter("sim.faults.store_partitions");
  obs::Counter& store_heals = reg.counter("sim.faults.store_heals");
  obs::Counter& host_downs = reg.counter("sim.faults.host_downs");
  obs::Counter& host_ups = reg.counter("sim.faults.host_ups");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics instance;
  return instance;
}

std::uint64_t mgbit(double gbps, double seconds) {
  return static_cast<std::uint64_t>(std::llround(gbps * seconds * 1e3));
}

/// Latency multiplier of a lossy path: retries and timeouts inflate service
/// time sharply as loss grows (loss in [0, 1)).
double lossy_latency_factor(double loss, double gain) {
  const double bounded = std::min(loss, 0.95);
  return std::min(1.0 + gain * bounded / (1.0 - bounded), 10.0);
}

void validate(const DrillConfig& config) {
  // Times must be finite: run() casts duration / tick to a tick count, the
  // timers multiply their periods, and the store's deliveries rely on one
  // finite constant delay.
  NETENT_EXPECTS(config.host_count >= 2);
  NETENT_EXPECTS(std::isfinite(config.tick_seconds) && config.tick_seconds > 0.0);
  NETENT_EXPECTS(std::isfinite(config.duration_seconds) &&
                 config.duration_seconds > config.tick_seconds);
  NETENT_EXPECTS(std::isfinite(config.metering_interval_seconds) &&
                 config.metering_interval_seconds > 0.0);
  NETENT_EXPECTS(std::isfinite(config.publish_interval_seconds) &&
                 config.publish_interval_seconds > 0.0);
  NETENT_EXPECTS(std::isfinite(config.store_visibility_delay_seconds) &&
                 config.store_visibility_delay_seconds >= 0.0);
  NETENT_EXPECTS(config.flows_per_host >= 1);
  NETENT_EXPECTS(std::isfinite(config.phase_jitter_seconds) &&
                 config.phase_jitter_seconds >= 0.0);
  NETENT_EXPECTS(config.failover_delay_seconds >= 0.0);
  NETENT_EXPECTS(config.write_session_tau_seconds > 0.0);
  for (const AclStage& stage : config.acl_stages) {
    NETENT_EXPECTS(stage.drop_fraction >= 0.0 && stage.drop_fraction <= 1.0);
  }
  for (const DrillFault& fault : config.faults) {
    NETENT_EXPECTS(fault.at_seconds >= 0.0);
    const bool host_scoped = fault.kind != DrillFault::Kind::store_partition &&
                             fault.kind != DrillFault::Kind::store_heal;
    if (host_scoped) NETENT_EXPECTS(fault.host < config.host_count);
  }
}

}  // namespace

PropagatingStore::PropagatingStore(EventQueue& queue, EventRateStore& inner)
    : inner_(inner),
      in_flight_(queue, inner.visibility_delay(), kDeliveryStratum,
                 [this, &queue](const Publish& p) {
                   inner_.deliver(p.npg, p.qos, p.host, p.total, p.conform, p.published_seconds,
                                  queue.now());
                 }) {}

void PropagatingStore::publish(NpgId npg, QosClass qos, HostId host, Gbps total, Gbps conform,
                               double now_seconds) {
  in_flight_.send(Publish{npg, qos, host, total, conform, now_seconds});
}

ServiceRates PropagatingStore::aggregate(NpgId npg, QosClass qos, double now_seconds) const {
  return inner_.read(npg, qos, now_seconds);
}

DrillEngine::DrillEngine(DrillConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  validate(config_);
}

std::vector<DrillTick> DrillEngine::run() {
  const std::size_t n = config_.host_count;
  DrillMetrics& dm = drill_metrics();
  dm.runs.add();

  // --- static setup ---------------------------------------------------
  // Heterogeneous host demand weights. RNG consumption order (weights, then
  // pool forks, then jitter offsets) is part of the compat contract: the
  // jitter draws come last and only when jitter is on, so phase_jitter == 0
  // replays the historical streams untouched.
  std::vector<double> weight(n);
  double weight_norm = 0.0;
  for (double& w : weight) {
    w = std::exp(0.3 * rng_.normal());
    weight_norm += w;
  }
  for (double& w : weight) w /= weight_norm;

  const auto demand_at = [&](double t) {
    const double progress = std::min(1.0, t / config_.demand_ramp_end_seconds);
    return config_.demand_start.value() +
           (config_.demand_end - config_.demand_start).value() * progress;
  };
  // Lockstep-rule evaluation of the ACL schedule at time t (vector-last
  // stage whose start has passed wins); used only to precompute the value
  // each stage-start event installs.
  const auto acl_at = [&](double t) {
    double fraction = 0.0;
    for (const AclStage& stage : config_.acl_stages) {
      if (t >= stage.start_seconds) fraction = stage.drop_fraction;
    }
    return fraction;
  };

  // --- event spine -----------------------------------------------------
  EventQueue queue;

  // Contract and ACL state, mutated by kControlStratum events so a change
  // always lands before the same-timestamp sweep / metering reads.
  Gbps current_entitled = config_.entitled_cut_seconds <= 0.0 ? config_.entitled_reduced
                                                              : config_.entitled_initial;
  double current_acl = acl_at(0.0);
  if (config_.entitled_cut_seconds > 0.0) {
    queue.schedule(config_.entitled_cut_seconds, kControlStratum,
                   [&] { current_entitled = config_.entitled_reduced; });
  }
  for (const AclStage& stage : config_.acl_stages) {
    if (stage.start_seconds <= 0.0) continue;  // folded into the initial value
    const double fraction = acl_at(stage.start_seconds);
    queue.schedule(stage.start_seconds, kControlStratum,
                   [&current_acl, fraction] { current_acl = fraction; });
  }

  // --- enforcement plane ----------------------------------------------
  // Exact ordered sums in compat mode (bit-identical to the lookback
  // store); O(1) integer-delta aggregation once the fleet is jittered and
  // reads no longer batch per timestamp.
  const bool compat = config_.phase_jitter_seconds == 0.0;
  EventRateStore inner(compat ? EventRateStore::AggregateMode::kExactOrdered
                              : EventRateStore::AggregateMode::kFastDelta,
                       config_.store_visibility_delay_seconds);
  PropagatingStore store(queue, inner);
  const Marker marker(config_.marking, config_.marking_groups);
  const EntitlementQuery query = [&](NpgId npg, QosClass qos, double /*now*/) {
    NETENT_EXPECTS(npg == kColdstorage);
    NETENT_EXPECTS(qos == config_.qos);
    return EntitlementAnswer{true, current_entitled};
  };

  std::vector<BpfClassifier> classifiers;
  classifiers.reserve(n);
  std::vector<std::unique_ptr<HostAgent>> agents;
  agents.reserve(n);
  const AgentConfig agent_config{config_.metering_interval_seconds,
                                 config_.publish_interval_seconds};
  for (std::size_t h = 0; h < n; ++h) {
    classifiers.emplace_back(marker);
  }
  for (std::size_t h = 0; h < n; ++h) {
    std::unique_ptr<Meter> meter;
    if (config_.stateful_meter) {
      // Damped gain: the rate store adds a cycle of observation delay, so
      // the undamped Equation-6 loop would oscillate around the entitlement.
      meter = std::make_unique<StatefulMeter>(2.0, 0.4);
    } else {
      meter = std::make_unique<StatelessMeter>();
    }
    agents.push_back(std::make_unique<HostAgent>(HostId(static_cast<std::uint32_t>(h)),
                                                 kColdstorage, config_.qos, agent_config,
                                                 std::move(meter), query, store,
                                                 classifiers[h]));
  }

  // WAN egress port: a 2 ms service quantum makes queueing visible in RTT
  // at realistic utilizations (Figure 13's "slight increase").
  const PriorityQueueSwitch port(config_.port_capacity, 2.0, 15.0);
  const std::size_t service_queue = queue_for(dscp_for(config_.qos));

  // --- transport / application state -----------------------------------
  std::vector<double> nonconf_send_factor(n, 1.0);
  std::vector<TcpAggregate> tcp_state(n, TcpAggregate(config_.tcp));
  std::vector<ConnectionPool> connections;
  connections.reserve(n);
  ConnectionPoolConfig pool_config;
  pool_config.slots = config_.flows_per_host;
  pool_config.mean_lifetime_ticks = std::max(1.0, 60.0 / config_.tick_seconds * 5.0);
  for (std::size_t h = 0; h < n; ++h) connections.emplace_back(pool_config, rng_.fork());
  double prev_conf_loss = 0.0;
  std::vector<double> dead_for(n, 0.0);
  double write_pinned = 0.0;
  double write_latency_ewma = config_.write_base_latency_ms;
  std::vector<bool> host_alive(n, true);

  // Seed-derived timer phases, drawn after every historical stream.
  std::vector<double> publish_phase(n, 0.0);
  std::vector<double> metering_phase(n, 0.0);
  if (!compat) {
    for (std::size_t h = 0; h < n; ++h) {
      publish_phase[h] = rng_.uniform(0.0, config_.phase_jitter_seconds);
      metering_phase[h] = rng_.uniform(0.0, config_.phase_jitter_seconds);
    }
  }

  // --- world sweep ------------------------------------------------------
  std::vector<DrillTick> ticks;
  const auto total_ticks =
      static_cast<std::size_t>(config_.duration_seconds / config_.tick_seconds);
  ticks.reserve(total_ticks);
  std::vector<double> offered(kQueueCount, 0.0);
  std::vector<double> host_conf(n, 0.0);
  std::vector<double> host_nonconf(n, 0.0);
  std::vector<double> host_marked_share(n, 0.0);

  const auto sweep = [&] {
    const double t = queue.now();
    const double demand = demand_at(t);
    const double acl = current_acl;

    // 1. Hosts classify their egress traffic through the kernel stage: host
    // h's flows are h * 1000 + [0, flows_per_host), and one classifier query
    // per host counts how many of them it remarks.
    double conf_sent = 0.0;
    double nonconf_sent = 0.0;
    const double flow_rate_divisor = static_cast<double>(config_.flows_per_host);
    std::uint64_t flows_classified = 0;
    std::uint64_t flows_marked = 0;
    for (std::size_t h = 0; h < n; ++h) {
      if (!host_alive[h]) {
        // Machine death fault: no egress at all.
        host_marked_share[h] = 0.0;
        host_conf[h] = 0.0;
        host_nonconf[h] = 0.0;
        continue;
      }
      const double host_demand = demand * weight[h];
      const std::size_t marked_flows = classifiers[h].count_non_conforming(
          kColdstorage, config_.qos, HostId(static_cast<std::uint32_t>(h)),
          static_cast<std::uint64_t>(h) * 1000, config_.flows_per_host);
      flows_classified += config_.flows_per_host;
      flows_marked += marked_flows;
      const double marked = static_cast<double>(marked_flows) / flow_rate_divisor;
      host_marked_share[h] = marked;
      // Transport reaction: non-conforming flows send at a collapsed rate
      // under loss; conforming flows are unaffected (paper: conforming
      // metrics flat throughout).
      host_conf[h] = host_demand * (1.0 - marked);
      host_nonconf[h] = host_demand * marked * nonconf_send_factor[h];
    }
    for (std::size_t h = 0; h < n; ++h) {
      conf_sent += host_conf[h];
      nonconf_sent += host_nonconf[h];
    }
    if (flows_classified != 0) dm.flows_classified.add(flows_classified);
    if (flows_marked != 0) dm.flows_marked.add(flows_marked);

    // 2. ACL stage drops a scheduled fraction of non-conforming traffic.
    const double acl_dropped = nonconf_sent * acl;
    const double nonconf_after_acl = nonconf_sent - acl_dropped;

    // 3. Bottleneck port with strict-priority queues.
    std::fill(offered.begin(), offered.end(), 0.0);
    offered[service_queue] = conf_sent + config_.background_conforming.value();
    offered[kNonConformingQueue] = nonconf_after_acl;
    const auto outcomes = port.transmit(offered);

    const double conf_queue_offered = offered[service_queue];
    const double conf_loss =
        conf_queue_offered > kEps ? outcomes[service_queue].dropped_gbps / conf_queue_offered
                                  : 0.0;
    const double nonconf_network_dropped =
        acl_dropped + outcomes[kNonConformingQueue].dropped_gbps;
    const double nonconf_loss =
        nonconf_sent > kEps ? nonconf_network_dropped / nonconf_sent : acl;

    if constexpr (obs::kEnabled) {
      const double dt = config_.tick_seconds;
      dm.ticks.add();
      dm.conform_sent_mgbit.add(mgbit(conf_sent, dt));
      dm.nonconf_sent_mgbit.add(mgbit(nonconf_sent, dt));
      dm.acl_dropped_mgbit.add(mgbit(acl_dropped, dt));
      dm.port_conf_dropped_mgbit.add(mgbit(outcomes[service_queue].dropped_gbps, dt));
      dm.port_nonconf_dropped_mgbit.add(mgbit(outcomes[kNonConformingQueue].dropped_gbps, dt));
    }

    // 4. Transport adaptation for the next tick (EWMA toward goodput share).
    // The floor models retry/SYN baseline traffic: even fully-dropped flows
    // keep attempting, so the host-observed TotalRate never collapses all
    // the way to the conforming rate (which would spuriously trigger the
    // meters' back-in-conformance recovery).
    constexpr double kSendFloor = 0.05;
    for (std::size_t h = 0; h < n; ++h) {
      const double host_loss = host_marked_share[h] > kEps ? nonconf_loss : 0.0;
      if (config_.transport == DrillConfig::Transport::aimd) {
        nonconf_send_factor[h] = tcp_state[h].observe_loss(host_loss);
      } else {
        const double target = 1.0 - host_loss;
        nonconf_send_factor[h] =
            std::clamp(0.5 * nonconf_send_factor[h] + 0.5 * target, kSendFloor, 1.0);
      }
    }
    prev_conf_loss = conf_loss;

    // 5. Agents observe their local rates. Their publish/metering cycles are
    // no longer part of the sweep: each agent's own kAgentStratum timers run
    // them (after this sweep when the phases coincide — value-identical to
    // the historical in-sweep placement, since agents only mutate state the
    // next sweep reads).
    for (std::size_t h = 0; h < n; ++h) {
      agents[h]->observe_local(Gbps(host_conf[h] + host_nonconf[h]), Gbps(host_conf[h]));
    }

    // 6. Application model.
    double read_latency_num = 0.0;
    double read_weight = 0.0;
    double marked_host_fraction = 0.0;
    for (std::size_t h = 0; h < n; ++h) {
      const bool fully_marked = host_marked_share[h] > 0.999;
      const bool dead = !host_alive[h] || (fully_marked && nonconf_loss > 0.99);
      dead_for[h] = dead ? dead_for[h] + config_.tick_seconds : 0.0;
      marked_host_fraction += host_marked_share[h] / static_cast<double>(n);

      // Reads: requests spread over hosts; after failover_delay the
      // application stops sending reads to dead hosts entirely.
      const bool failed_over = dead_for[h] > 0.0 && dead_for[h] >= config_.failover_delay_seconds;
      if (failed_over) continue;  // host serves no reads; healthy hosts absorb them
      const double host_loss =
          host_alive[h] ? host_marked_share[h] * nonconf_loss : 1.0;
      const double latency =
          config_.read_base_latency_ms * lossy_latency_factor(host_loss, 4.0);
      read_latency_num += latency;
      read_weight += 1.0;
    }
    const double read_latency =
        read_weight > 0.0 ? read_latency_num / read_weight : config_.read_base_latency_ms;

    // Writes: sessions pinned to marked hosts drain away with a long time
    // constant; their latency reflects the loss they experience.
    const double pin_target = marked_host_fraction;
    const double decay = config_.tick_seconds / config_.write_session_tau_seconds;
    if (pin_target > write_pinned) {
      write_pinned = pin_target;  // new markings take effect immediately
    } else {
      write_pinned += (pin_target - write_pinned) * decay;  // slow migration away
    }
    const double write_loss = write_pinned * nonconf_loss;
    const double write_latency_now =
        config_.write_base_latency_ms * lossy_latency_factor(write_loss, 6.0);
    write_latency_ewma = 0.7 * write_latency_ewma + 0.3 * write_latency_now;
    const double block_error_rate = std::min(1.0, write_pinned * nonconf_loss * 0.8);

    // 7. Connection stats from the per-host pools: hosts whose traffic is
    // marked experience the non-conforming loss; the rest see the (near
    // zero) conforming loss; a dead machine rejects every attempt.
    double conf_syn = 0.0;
    double nonconf_syn = 0.0;
    double nonconf_rst = 0.0;
    double conf_fin = 0.0;
    for (std::size_t h = 0; h < n; ++h) {
      const bool marked = host_marked_share[h] > 0.5;
      const double host_loss =
          !host_alive[h] ? 1.0 : (marked ? nonconf_loss : prev_conf_loss);
      const ConnectionStats stats = connections[h].tick(host_loss);
      const double syn_per_s = static_cast<double>(stats.syn_sent) / config_.tick_seconds;
      (marked ? nonconf_syn : conf_syn) += syn_per_s;
      if (marked) {
        nonconf_rst += static_cast<double>(stats.resets) / config_.tick_seconds;
      } else {
        conf_fin += static_cast<double>(stats.fins) / config_.tick_seconds;
      }
    }

    // 8. Record the tick.
    DrillTick tick;
    tick.t_seconds = t;
    tick.acl_drop_fraction = acl;
    tick.entitled = current_entitled.value();
    tick.demand = demand;
    tick.total_rate = conf_sent + nonconf_sent;
    tick.conform_rate = conf_sent;
    tick.conform_loss_ratio = conf_loss;
    tick.nonconform_loss_ratio = nonconf_loss;
    tick.conform_rtt_ms = config_.base_rtt_ms + outcomes[service_queue].queue_delay_ms;
    tick.nonconform_rtt_ms =
        config_.base_rtt_ms + outcomes[kNonConformingQueue].queue_delay_ms;
    tick.conform_syn_per_s = conf_syn;
    tick.nonconform_syn_per_s = nonconf_syn;
    tick.nonconform_rst_per_s = nonconf_rst;
    tick.conform_fin_per_s = conf_fin;
    tick.read_latency_ms = read_latency;
    tick.write_latency_ms = write_latency_ewma;
    tick.block_error_rate = block_error_rate;
    ticks.push_back(tick);
  };

  // --- timers -----------------------------------------------------------
  PeriodicTimer world_timer(queue, config_.tick_seconds, kWorldStratum, sweep);
  world_timer.start_at(0.0);

  // Per-agent publish/metering timers, created interleaved per host so the
  // same-timestamp FIFO reproduces the historical "publish, then meter, per
  // host in order" sequence in compat mode.
  std::vector<std::unique_ptr<PeriodicTimer>> publish_timers;
  std::vector<std::unique_ptr<PeriodicTimer>> metering_timers;
  publish_timers.reserve(n);
  metering_timers.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    HostAgent* agent = agents[h].get();
    publish_timers.push_back(std::make_unique<PeriodicTimer>(
        queue, config_.publish_interval_seconds, kAgentStratum,
        [agent, &queue] { agent->publish_now(queue.now()); }));
    metering_timers.push_back(std::make_unique<PeriodicTimer>(
        queue, config_.metering_interval_seconds, kAgentStratum,
        [agent, &queue] { agent->run_metering(queue.now()); }));
    publish_timers[h]->start_at(publish_phase[h]);
    metering_timers[h]->start_at(metering_phase[h]);
  }

  // --- fault injection --------------------------------------------------
  const auto apply_fault = [&](const DrillFault& fault) {
    FaultMetrics& fm = fault_metrics();
    const std::size_t h = fault.host;
    switch (fault.kind) {
      case DrillFault::Kind::agent_crash:
        fm.agent_crashes.add();
        publish_timers[h]->stop();
        metering_timers[h]->stop();
        break;
      case DrillFault::Kind::agent_restart:
        fm.agent_restarts.add();
        agents[h]->restart();
        publish_timers[h]->start_at(queue.now());
        metering_timers[h]->start_at(queue.now());
        break;
      case DrillFault::Kind::store_partition:
        fm.store_partitions.add();
        inner.set_partitioned(true);
        break;
      case DrillFault::Kind::store_heal:
        fm.store_heals.add();
        inner.set_partitioned(false);
        break;
      case DrillFault::Kind::host_down:
        fm.host_downs.add();
        host_alive[h] = false;
        publish_timers[h]->stop();  // the machine took its agent with it
        metering_timers[h]->stop();
        break;
      case DrillFault::Kind::host_up:
        fm.host_ups.add();
        host_alive[h] = true;
        agents[h]->restart();
        publish_timers[h]->start_at(queue.now());
        metering_timers[h]->start_at(queue.now());
        break;
    }
  };
  for (const DrillFault& fault : config_.faults) {
    queue.schedule(fault.at_seconds, kControlStratum,
                   [&apply_fault, fault] { apply_fault(fault); });
  }

  // --- run --------------------------------------------------------------
  const double last_tick_seconds =
      static_cast<double>(total_ticks - 1) * config_.tick_seconds;
  queue.run_until(last_tick_seconds);
  world_timer.stop();
  for (std::size_t h = 0; h < n; ++h) {
    publish_timers[h]->stop();
    metering_timers[h]->stop();
  }

  stats_.events_scheduled = queue.scheduled_count();
  stats_.events_executed = queue.executed_count();
  stats_.events_cancelled = queue.cancelled_count();
  stats_.ticks_recorded = ticks.size();
  return ticks;
}

}  // namespace netent::sim
