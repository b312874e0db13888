// The host enforcement agent (Figure 9): the user-space component that
// queries the contract database, publishes and reads service-aggregate rates
// through the distributed rate store, runs the metering algorithm, and
// programs the kernel classifier. One agent instance runs per host per
// enforced (NPG, QoS) entitlement.
//
// Fully distributed: agents never talk to a controller or to each other;
// coordination is implicit through the rate store (§5.1 second-generation
// architecture).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.h"
#include "common/units.h"
#include "enforce/bpf.h"
#include "enforce/meter.h"
#include "enforce/ratestore.h"

namespace netent::enforce {

/// Contract lookup: EntitledRate for (NPG, QoS) as of `now`; Gbps(0) with
/// `found == false` when no entitlement applies. Kept as a callback so the
/// enforcement plane does not depend on the contract-database module.
struct EntitlementAnswer {
  bool found = false;
  Gbps entitled_rate;
};
using EntitlementQuery = std::function<EntitlementAnswer(NpgId, QosClass, double now_seconds)>;

struct AgentConfig {
  double metering_interval_seconds = 10.0;
  double publish_interval_seconds = 5.0;
  /// The kernel map is only reprogrammed when the meter's NonConformRatio
  /// moved by more than this since the last programming. Without hysteresis
  /// the marked set flaps by one group every cycle at the metering
  /// equilibrium, defeating the application failover that host-based
  /// remarking exists to enable (§5.3).
  double ratio_hysteresis = 0.02;
};

/// Per-cycle counts (publishes, metering and no-contract cycles, kernel
/// program paths, meter events) are kept in plain integers and flushed to
/// the obs registry every kObsFlushCycles metering cycles and on
/// destruction; the conform-ratio gauge is still set every cycle.
class HostAgent {
 public:
  static constexpr std::uint64_t kObsFlushCycles = 64;

  /// The classifier is owned by the host (kernel); the agent programs it.
  HostAgent(HostId host, NpgId npg, QosClass qos, AgentConfig config,
            std::unique_ptr<Meter> meter, EntitlementQuery query, RateStore& store,
            BpfClassifier& classifier);
  ~HostAgent();

  HostAgent(const HostAgent&) = delete;
  HostAgent& operator=(const HostAgent&) = delete;

  /// Reports this host's currently measured egress rates for the service
  /// (set by the traffic source each cycle before tick()).
  void observe_local(Gbps total, Gbps conform);

  /// Advances the agent to `now`: publishes local rates and/or runs a
  /// metering cycle when the respective intervals elapsed. Returns true if a
  /// metering cycle ran. (Lockstep driver entry point; event-driven engines
  /// call publish_now / run_metering from their own timers instead.)
  bool tick(double now_seconds);

  /// Publishes the local rates unconditionally (event-timer entry point).
  void publish_now(double now_seconds);

  /// Runs one metering cycle unconditionally (event-timer entry point).
  void run_metering(double now_seconds);

  /// Models the agent process coming back after a crash: the meter's control
  /// state is forgotten and the agent no longer knows what it last
  /// programmed into the kernel (the BPF map itself persists across agent
  /// restarts — that persistence is what keeps conforming traffic protected
  /// while the agent is down, the §6 drill invariant). The next metering
  /// cycle reprograms unconditionally.
  void restart();

  [[nodiscard]] double non_conform_ratio() const { return meter_->non_conform_ratio(); }

 private:
  void flush_counts();

  HostId host_;
  NpgId npg_;
  QosClass qos_;
  AgentConfig config_;
  std::unique_ptr<Meter> meter_;
  EntitlementQuery query_;
  RateStore& store_;
  BpfClassifier& classifier_;

  Gbps local_total_;
  Gbps local_conform_;
  double last_publish_ = -1e18;
  double last_metering_ = -1e18;
  double programmed_ratio_ = -1.0;  // <0: nothing programmed yet
  std::uint64_t cycle_count_ = 0;  // drives the sampled span and the flushes
  // Counts not yet flushed to the obs registry; the meter's tallies flush as
  // deltas against what was already pushed.
  std::uint64_t publishes_ = 0;
  std::uint64_t metering_cycles_ = 0;
  std::uint64_t no_contract_cycles_ = 0;
  std::uint64_t kernel_programs_ = 0;
  std::uint64_t kernel_unprograms_ = 0;
  std::uint64_t reprograms_suppressed_ = 0;
  MeterEvents flushed_events_;
};

}  // namespace netent::enforce
