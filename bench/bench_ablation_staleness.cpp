// Ablation: rate-store staleness versus metering gain. The §5.1 distributed
// rate store aggregates remotely, so agents act on stale service rates; the
// §5.2 Equation-6 correction (gain 1.0) limit-cycles once the observation
// delay spans a metering cycle, and a damped gain restores convergence.
// Reported: steady-state error and oscillation amplitude of the conforming
// rate for each (visibility delay, gain) cell.
#include "bench_util.h"

#include <memory>

#include "common/stats.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/dscp.h"

namespace {

using namespace netent;
using namespace netent::bench;
using namespace netent::enforce;

constexpr NpgId kSvc{1};
constexpr QosClass kQos = QosClass::c2_low;
constexpr double kEntitled = 1000.0;
constexpr double kDemand = 2500.0;
constexpr std::size_t kHosts = 50;

struct CellResult {
  double mean_error_pct;  ///< |mean conforming - entitled| / entitled
  double swing_pct;       ///< (max - min) / entitled over the steady window
};

CellResult run_cell(double visibility_delay, double gain) {
  RateStore store(RateStore::AggregateMode::kExactOrdered, visibility_delay);
  const Marker marker(MarkingMode::host_based);
  const EntitlementQuery query = [](NpgId, QosClass, double) {
    return EntitlementAnswer{true, Gbps(kEntitled)};
  };
  std::vector<BpfClassifier> classifiers(kHosts, BpfClassifier(marker));
  std::vector<std::unique_ptr<HostAgent>> agents;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    agents.push_back(std::make_unique<HostAgent>(
        HostId(h), kSvc, kQos, AgentConfig{10.0, 5.0},
        std::make_unique<StatefulMeter>(2.0, gain), query, store, classifiers[h]));
  }

  const double per_host = kDemand / static_cast<double>(kHosts);
  RunningStats steady;
  for (double t = 0.0; t < 1200.0; t += 5.0) {
    double conform = 0.0;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      const EgressMeta meta{kSvc, kQos, HostId(h), 0};
      const bool conforming = classifiers[h].classify(meta) != kNonConformingDscp;
      const double sent_conform = conforming ? per_host : 0.0;
      // Retry floor on marked hosts' observed sends.
      const double sent_nonconf = conforming ? 0.0 : per_host * 0.05;
      conform += sent_conform;
      agents[h]->observe_local(Gbps(sent_conform + sent_nonconf), Gbps(sent_conform));
    }
    for (auto& agent : agents) agent->tick(t);
    if (t >= 600.0) steady.add(conform);
  }
  return {std::abs(steady.mean() - kEntitled) / kEntitled * 100.0,
          (steady.max() - steady.min()) / kEntitled * 100.0};
}

}  // namespace

int main() {
  print_header("Ablation: rate-store staleness vs metering gain",
               "Expect: with fresh observations every gain converges; at moderate staleness "
               "gain 1.0 (the paper's Equation 6) oscillates while damped gains hold; "
               "beyond several metering intervals of delay every gain degrades.");

  Table table({"visibility_delay_s", "gain", "steady_error_pct", "swing_pct"}, 2);
  for (const double delay : {0.0, 10.0, 30.0, 60.0}) {
    for (const double gain : {1.0, 0.5, 0.25}) {
      const CellResult result = run_cell(delay, gain);
      table.add_row({delay, gain, result.mean_error_pct, result.swing_pct});
    }
  }
  table.print(std::cout);
  return 0;
}
