// Architecture-evolution ablation (§5.1): the first-generation centralized
// rate-limiting bandwidth manager versus the second-generation distributed
// marking architecture, quantifying the three reasons Meta evolved:
//
//   1. Co-flow completion: shaping at the source throttles hosts whose
//      demand shifted since the controller's last cycle even when the
//      network is NOT congested; marking delivers everything when capacity
//      allows.
//   2. Scalability: the controller's cycle time grows linearly with the
//      fleet; distributed agents do constant work each.
//   3. Reliability: a controller failure freezes stale limits fleet-wide;
//      distributed agents keep adapting.
#include "bench_util.h"

#include <memory>

#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/centralized.h"
#include "enforce/dscp.h"
#include "enforce/switchport.h"

namespace {

using namespace netent;
using namespace netent::bench;
using namespace netent::enforce;

constexpr NpgId kSvc{1};
constexpr QosClass kQos = QosClass::c2_low;

EntitlementQuery fixed_entitlement(double gbps) {
  return [gbps](NpgId, QosClass, double) { return EntitlementAnswer{true, Gbps(gbps)}; };
}

/// Co-flow experiment: 20 hosts, total demand equal to the entitlement (the
/// service is CONFORMING), but the hot half of the co-flow alternates each
/// phase. The controller reallocates with one phase of lag.
void coflow_experiment() {
  const std::size_t hosts = 20;
  const double entitled = 1000.0;
  const double hot_rate = 2.0 * entitled / static_cast<double>(hosts) * 0.9;
  const double cold_rate = 2.0 * entitled / static_cast<double>(hosts) * 0.1;

  CentralController controller(ControllerConfig{}, fixed_entitlement(entitled));
  SourceRateLimiter limiter;
  const PriorityQueueSwitch port(Gbps(2000));  // plenty of network capacity

  Table table({"phase", "offered_g", "first_gen_delivered_g", "second_gen_delivered_g",
               "first_gen_slowdown"},
              2);
  std::vector<HostReport> previous_reports;
  for (int phase = 0; phase < 6; ++phase) {
    // Build this phase's demands: hot half alternates.
    std::vector<HostReport> reports;
    double offered = 0.0;
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const bool hot = (h < hosts / 2) == (phase % 2 == 0);
      const double demand = hot ? hot_rate : cold_rate;
      reports.push_back({HostId(h), kSvc, kQos, Gbps(demand)});
      offered += demand;
    }

    // First generation: the controller decided on LAST phase's demands.
    const auto decisions =
        controller.control_cycle(previous_reports.empty() ? reports : previous_reports, phase);
    for (const auto& decision : decisions) limiter.apply(decision);
    double first_gen = 0.0;
    for (const HostReport& report : reports) {
      first_gen += limiter.shape(report.host, report.demand).value();
    }

    // Second generation: hosts mark (nothing, since conforming) and the
    // switch delivers everything that fits.
    std::vector<double> queues(kQueueCount, 0.0);
    queues[queue_for(dscp_for(kQos))] = offered;
    const auto outcomes = port.transmit(queues);
    const double second_gen = outcomes[queue_for(dscp_for(kQos))].delivered_gbps;

    table.add_row({static_cast<double>(phase), offered, first_gen, second_gen,
                   first_gen > 0.0 ? second_gen / first_gen : 0.0});
    previous_reports = reports;
  }
  std::cout << "1. Co-flow completion under shifting demand (service CONFORMING, network "
               "uncongested):\n";
  table.print(std::cout);
  std::cout << "   -> first-gen throttles the moving hot set at the source; slowdown is the "
               "co-flow completion penalty.\n\n";
}

void scalability_experiment() {
  Table table({"fleet_hosts", "controller_cycle_ms", "distributed_per_agent_us"}, 3);
  for (const std::size_t fleet : {1000u, 10000u, 50000u, 100000u}) {
    ControllerConfig config;
    config.per_report_cost_us = 5.0;
    CentralController controller(config, fixed_entitlement(1000.0));
    std::vector<HostReport> reports(fleet, {HostId(0), kSvc, kQos, Gbps(1)});
    (void)controller.control_cycle(reports, 0.0);
    // Distributed: each agent reads one aggregate and runs one meter update,
    // independent of fleet size.
    const double per_agent_us = 2.0;
    table.add_row({static_cast<double>(fleet), controller.last_cycle_cost_us() / 1000.0,
                   per_agent_us});
  }
  std::cout << "2. Control-cycle cost vs fleet size:\n";
  table.print(std::cout);
  std::cout << "   -> the §5.1 scalability wall: centralized cost grows linearly; "
               "distributed agents do constant work.\n\n";
}

void failure_experiment() {
  const double entitled = 1000.0;

  // First generation: controller dies right after throttling for a burst.
  CentralController controller(ControllerConfig{}, fixed_entitlement(entitled));
  SourceRateLimiter limiter;
  std::vector<HostReport> burst(10, {HostId(0), kSvc, kQos, Gbps(400)});
  for (std::uint32_t h = 0; h < 10; ++h) burst[h].host = HostId(h);
  for (const auto& decision : controller.control_cycle(burst, 0.0)) limiter.apply(decision);
  controller.set_failed(true);
  // Demand returns to a calm 50 per host (conforming), but limits are stale.
  double first_gen_delivered = 0.0;
  for (const auto& decision : controller.control_cycle(burst, 10.0)) limiter.apply(decision);
  for (std::uint32_t h = 0; h < 10; ++h) {
    first_gen_delivered += limiter.shape(HostId(h), Gbps(50)).value();
  }

  // Second generation: agents keep metering locally; a calm conforming
  // service is never marked, regardless of any central component.
  RateStore store(RateStore::AggregateMode::kExactOrdered, 1.0);
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  HostAgent agent(HostId(1), kSvc, kQos, AgentConfig{}, std::make_unique<StatefulMeter>(),
                  fixed_entitlement(entitled), store, classifier);
  agent.observe_local(Gbps(500), Gbps(500));
  agent.tick(0.0);
  agent.tick(10.0);
  const double second_gen_marked = agent.non_conform_ratio();

  std::cout << "3. Failure behaviour:\n"
            << "   first-gen: controller down, demand calmed to 500 total against " << entitled
            << " entitled -> hosts still shaped to " << first_gen_delivered
            << " Gbps by stale limits.\n"
            << "   second-gen: agents keep deciding locally -> non-conform ratio "
            << second_gen_marked * 100.0 << "% (nothing marked, nothing lost).\n";
}

}  // namespace

int main() {
  print_header("Ablation: first-generation (centralized rate limiting) vs current "
               "(distributed marking) architecture",
               "Reproduces the three §5.1 reasons for the architecture evolution.");
  coflow_experiment();
  scalability_experiment();
  failure_experiment();
  return 0;
}
