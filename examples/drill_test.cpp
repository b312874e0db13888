// The §6 enforcement drill as an operator would run it: pick a big storage
// service, cut its entitlement, ramp ACL drops over its non-conforming
// traffic, watch network- and application-level metrics, and roll back.
//
// Usage: ./drill_test [--marker=host|flow] [--meter=stateful|stateless]
#include <iostream>
#include <string>

#include "netent.h"

using namespace netent;

namespace {

std::string flag_value(int argc, char** argv, const std::string& key,
                       const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

double stage_mean(const std::vector<sim::DrillTick>& ticks, double t0_min, double t1_min,
                  double sim::DrillTick::* field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& tick : ticks) {
    if (tick.t_seconds >= t0_min * 60.0 && tick.t_seconds < t1_min * 60.0) {
      sum += tick.*field;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  sim::DrillConfig config;
  config.host_count = 200;
  config.marking = flag_value(argc, argv, "marker", "host") == "flow"
                       ? enforce::MarkingMode::flow_based
                       : enforce::MarkingMode::host_based;
  config.stateful_meter = flag_value(argc, argv, "meter", "stateful") != "stateless";

  std::cout << "Coldstorage enforcement drill: " << config.host_count << " hosts, "
            << to_string(config.marking) << " marking, "
            << (config.stateful_meter ? "stateful" : "stateless") << " metering\n"
            << "Timeline: entitled " << config.entitled_initial.value() << " -> "
            << config.entitled_reduced.value() << " Gbps @30min; ACL drops 12.5% @65min, "
            << "50% @100min, 100% @135min; rollback @170min.\n\n";

  sim::DrillEngine drill(config, Rng(42));
  const auto ticks = drill.run();

  struct Stage {
    const char* name;
    double t0, t1;
  };
  const Stage stages[] = {{"baseline (0-30min)", 5, 30},
                          {"entitled cut, no ACL (30-65min)", 35, 65},
                          {"ACL 12.5% (65-100min)", 80, 100},
                          {"ACL 50% (100-135min)", 115, 135},
                          {"ACL 100% (135-170min)", 150, 170},
                          {"after rollback (170-210min)", 185, 210}};

  Table table({"stage", "total_g", "conform_g", "loss_nc_pct", "read_ms", "write_ms",
               "block_err_pct"},
              1);
  for (const Stage& stage : stages) {
    table.add_row({std::string(stage.name),
                   stage_mean(ticks, stage.t0, stage.t1, &sim::DrillTick::total_rate),
                   stage_mean(ticks, stage.t0, stage.t1, &sim::DrillTick::conform_rate),
                   stage_mean(ticks, stage.t0, stage.t1,
                              &sim::DrillTick::nonconform_loss_ratio) * 100.0,
                   stage_mean(ticks, stage.t0, stage.t1, &sim::DrillTick::read_latency_ms),
                   stage_mean(ticks, stage.t0, stage.t1, &sim::DrillTick::write_latency_ms),
                   stage_mean(ticks, stage.t0, stage.t1, &sim::DrillTick::block_error_rate) *
                       100.0});
  }
  table.print(std::cout);

  const double conform_at_full_drop =
      stage_mean(ticks, 150, 170, &sim::DrillTick::conform_rate);
  std::cout << "\nVerdict: during the 100% stage the conforming rate averaged "
            << conform_at_full_drop << " Gbps against a " << config.entitled_reduced.value()
            << " Gbps entitlement -> "
            << (std::abs(conform_at_full_drop - config.entitled_reduced.value()) <
                        config.entitled_reduced.value() * 0.2
                    ? "the contract was enforced."
                    : "the contract was NOT enforced (try --meter=stateful).")
            << '\n';
  return 0;
}
