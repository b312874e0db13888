// The §6 real-world enforcement drill, reproduced in simulation: a big
// storage service (Coldstorage) with hundreds of hosts behind one backbone
// bottleneck port, full distributed enforcement (agents + rate store + BPF
// classifiers + priority-queue switch), and an ACL stage that drops a
// scheduled, increasing percentage of non-conforming traffic to mimic
// congestion. Network-level (Figures 11-14) and application-level
// (Figures 15-17) metrics are collected every tick.
#pragma once

#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "enforce/marker.h"
#include "sim/tcp.h"

namespace netent::sim {

struct AclStage {
  double start_seconds;
  double drop_fraction;  ///< of non-conforming traffic, in [0, 1]
};

/// A runtime fault injected into the drill at a scheduled simulation time
/// (kControlStratum, so it lands before that timestamp's world sweep).
struct DrillFault {
  enum class Kind : std::uint8_t {
    agent_crash,      ///< host's agent process dies; its kernel classifier persists
    agent_restart,    ///< fresh agent process: meter state forgotten, timers re-based
    store_partition,  ///< rate-store deliveries are lost until heal
    store_heal,
    host_down,  ///< machine death: no traffic, agent dead, reads fail over
    host_up,    ///< machine returns with a fresh agent
  };
  double at_seconds = 0.0;
  Kind kind = Kind::agent_crash;
  std::size_t host = 0;  ///< ignored for store_partition / store_heal
};

struct DrillConfig {
  std::size_t host_count = 200;
  double duration_seconds = 210.0 * 60.0;
  double tick_seconds = 5.0;

  QosClass qos = QosClass::c2_low;
  Gbps entitled_initial = Gbps(5000);
  Gbps entitled_reduced = Gbps(1000);
  double entitled_cut_seconds = 30.0 * 60.0;  ///< "At x=30 min, the entitled rate is reduced"

  /// The §6 methodology: progressively increase the dropped percentage of
  /// non-conforming traffic, then roll back (final stage with fraction 0).
  std::vector<AclStage> acl_stages = {
      {65.0 * 60.0, 0.125}, {100.0 * 60.0, 0.50}, {135.0 * 60.0, 1.0}, {170.0 * 60.0, 0.0}};

  /// Service demand ramp: starts below the reduced entitlement ("the service
  /// is not busy") and grows past it.
  Gbps demand_start = Gbps(900);
  Gbps demand_end = Gbps(3000);
  double demand_ramp_end_seconds = 120.0 * 60.0;

  Gbps port_capacity = Gbps(6000);
  Gbps background_conforming = Gbps(1500);  ///< other services sharing the port

  enforce::MarkingMode marking = enforce::MarkingMode::host_based;
  bool stateful_meter = true;
  /// Transport reaction of non-conforming flows to loss: the default EWMA
  /// collapse/recover, or the fluid AIMD aggregate of sim/tcp.h.
  enum class Transport : std::uint8_t { ewma, aimd };
  Transport transport = Transport::ewma;
  TcpAggregateConfig tcp;
  double store_visibility_delay_seconds = 10.0;
  double metering_interval_seconds = 10.0;
  double publish_interval_seconds = 5.0;
  std::uint32_t marking_groups = 100;
  std::size_t flows_per_host = 25;

  /// Per-agent timer phase jitter: each host's publish and metering timers
  /// start at an independent uniform offset in [0, phase_jitter_seconds)
  /// instead of all firing in lockstep with the world sweep. 0 is the compat
  /// mode that reproduces the historical lockstep tick series bit-for-bit;
  /// any positive value desynchronizes the control plane the way real agent
  /// fleets are (runs stay deterministic for a fixed seed, but differ from
  /// the lockstep series).
  double phase_jitter_seconds = 0.0;

  /// Runtime faults, applied at their scheduled times (any order).
  std::vector<DrillFault> faults;

  double base_rtt_ms = 35.0;           ///< cross-region propagation
  double read_base_latency_ms = 120.0;  ///< Coldstorage restore service time
  double write_base_latency_ms = 180.0;
  /// Reads re-balance away from a host once it has been dead this long
  /// (>= 0; 0 fails a dead host over on the tick it dies).
  double failover_delay_seconds = 120.0;
  double write_session_tau_seconds = 900.0;  ///< stateful writes move away slowly (> 0)
};

/// One tick of collected metrics. Rates in Gbps, delays in ms.
struct DrillTick {
  double t_seconds = 0.0;
  double acl_drop_fraction = 0.0;
  double entitled = 0.0;
  double demand = 0.0;

  // Figure 12: rates as reported by the endhosts.
  double total_rate = 0.0;
  double conform_rate = 0.0;

  // Figure 11: network loss ratio per marking.
  double conform_loss_ratio = 0.0;
  double nonconform_loss_ratio = 0.0;

  // Figure 13: RTT per marking.
  double conform_rtt_ms = 0.0;
  double nonconform_rtt_ms = 0.0;

  // Figure 14 family: TCP stats per second. The paper collects SYN,
  // SYN/ACK, FIN/RST, FIN, RST and retransmits; SYN is the one it plots.
  double conform_syn_per_s = 0.0;
  double nonconform_syn_per_s = 0.0;
  double nonconform_rst_per_s = 0.0;
  double conform_fin_per_s = 0.0;

  // Figures 15-17: application metrics.
  double read_latency_ms = 0.0;
  double write_latency_ms = 0.0;
  double block_error_rate = 0.0;  ///< failed write blocks / attempted
};

}  // namespace netent::sim
