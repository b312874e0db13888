// Incident response: replay the §2.2 misbehaving-service incidents (a client
// bug and a caching feature change) against a shared backbone port, first
// without entitlement enforcement (victims bleed), then with the full
// distributed enforcement plane (victims protected, culprit accountable).
#include <iostream>
#include <memory>

#include "netent.h"

using namespace netent;

namespace {

constexpr NpgId kVictim{1};
constexpr NpgId kCulprit{2};
constexpr QosClass kQos = QosClass::c2_low;

struct Minute {
  double t = 0.0;
  double victim_loss = 0.0;
  double culprit_loss = 0.0;
  double culprit_marked = 0.0;
};

/// Simulates 40 minutes of the incident. With `enforce_entitlements` the
/// culprit's agents mark its excess non-conforming; otherwise both services
/// share the class queue and drop pro-rata.
std::vector<Minute> run(bool enforce_entitlements) {
  const Gbps port_capacity(8000);
  const enforce::PriorityQueueSwitch port(port_capacity);

  const double victim_rate = 4200.0;
  const double culprit_base = 3500.0;
  const Gbps culprit_entitled(3600.0);

  // Incident 1: client bug ramps the culprit +50% within 3 minutes at t=5min,
  // holding 20 minutes. Incident 2: a caching feature change adds a 400 Gbps
  // step at t=30min.
  traffic::TimeSeries culprit(60.0, std::vector<double>(40, culprit_base));
  traffic::inject_bug_spike(culprit, 5.0 * 60.0, 3.0 * 60.0, 20.0 * 60.0, 0.5);
  traffic::inject_feature_step(culprit, 30.0 * 60.0, 400.0);

  enforce::RateStore store(enforce::RateStore::AggregateMode::kExactOrdered, 30.0);
  enforce::BpfClassifier classifier{enforce::Marker(enforce::MarkingMode::host_based)};
  const enforce::EntitlementQuery query = [&](NpgId, QosClass, double) {
    return enforce::EntitlementAnswer{true, culprit_entitled};
  };
  enforce::HostAgent agent(HostId(1), kCulprit, kQos, enforce::AgentConfig{60.0, 30.0},
                           std::make_unique<enforce::StatefulMeter>(2.0, 0.5), query, store,
                           classifier);

  std::vector<Minute> minutes;
  const std::size_t queue = enforce::queue_for(enforce::dscp_for(kQos));
  for (int minute = 0; minute < 40; ++minute) {
    const double t = minute * 60.0;
    const double culprit_rate = culprit.at_time(t);

    double culprit_conf = culprit_rate;
    double culprit_nonconf = 0.0;
    if (enforce_entitlements) {
      agent.observe_local(Gbps(culprit_rate), Gbps(culprit_rate * (1.0 - agent.non_conform_ratio())));
      agent.tick(t);
      const enforce::EgressMeta meta{kCulprit, kQos, HostId(1), 0};
      // One aggregate "host" stands in for the fleet: the marked share comes
      // from the meter's ratio directly.
      (void)classifier.classify(meta);
      culprit_nonconf = culprit_rate * agent.non_conform_ratio();
      culprit_conf = culprit_rate - culprit_nonconf;
    }

    std::vector<double> offered(enforce::kQueueCount, 0.0);
    offered[queue] = victim_rate + culprit_conf;
    offered[enforce::kNonConformingQueue] += culprit_nonconf;
    const auto outcomes = port.transmit(offered);

    // In-class drops hit victim and culprit-conforming pro-rata.
    const double class_loss =
        offered[queue] > 0.0 ? outcomes[queue].dropped_gbps / offered[queue] : 0.0;
    const double nonconf_loss =
        culprit_nonconf > 0.0
            ? outcomes[enforce::kNonConformingQueue].dropped_gbps / culprit_nonconf
            : 0.0;

    Minute record;
    record.t = minute;
    record.victim_loss = class_loss;
    record.culprit_loss =
        culprit_rate > 0.0
            ? (class_loss * culprit_conf + nonconf_loss * culprit_nonconf) / culprit_rate
            : 0.0;
    record.culprit_marked = culprit_rate > 0.0 ? culprit_nonconf / culprit_rate : 0.0;
    minutes.push_back(record);
  }
  return minutes;
}

}  // namespace

int main() {
  std::cout << "Incident replay: victim (4.2 Tbps, well-behaved) and culprit (3.5 Tbps\n"
               "entitled 3.6 Tbps) share an 8 Tbps class queue. At t=5min a client bug\n"
               "ramps the culprit +50% in 3 minutes; at t=30min a caching change adds\n"
               "another 400 Gbps step.\n\n";

  const auto without = run(false);
  const auto with = run(true);

  Table table({"minute", "victim_loss_no_ent_pct", "victim_loss_ent_pct",
               "culprit_loss_ent_pct", "culprit_marked_pct"},
              2);
  for (std::size_t i = 0; i < without.size(); i += 3) {
    table.add_row({without[i].t, without[i].victim_loss * 100.0, with[i].victim_loss * 100.0,
                   with[i].culprit_loss * 100.0, with[i].culprit_marked * 100.0});
  }
  table.print(std::cout);

  double victim_peak_without = 0.0;
  double victim_peak_with = 0.0;
  for (std::size_t i = 0; i < without.size(); ++i) {
    victim_peak_without = std::max(victim_peak_without, without[i].victim_loss);
    victim_peak_with = std::max(victim_peak_with, with[i].victim_loss);
  }
  std::cout << "\nPeak victim loss: " << victim_peak_without * 100.0
            << "% without entitlement vs " << victim_peak_with * 100.0
            << "% with enforcement. Accountability: the loss lands on the culprit's "
               "non-conforming traffic, which is exactly the share above its contract.\n";
  return 0;
}
