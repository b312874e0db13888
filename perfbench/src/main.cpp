// netent_perfbench: the end-to-end benchmark program.
//
//   netent_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR]
//
// NAME is admission-churn, tenant-fleet, risk-sweep or drill. The last line
// of standard output is the JSON result; everything above it is the report.
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const std::string& problem) {
  std::cerr << "netent_perfbench: " << problem << "\n"
            << "usage: netent_perfbench --workload admission-churn|tenant-fleet|risk-sweep|drill "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Workload;
  const std::map<std::string, std::function<std::unique_ptr<Workload>(std::uint64_t)>> factories =
      {{"admission-churn", perfbench::make_admission_churn},
       {"tenant-fleet", perfbench::make_tenant_fleet},
       {"risk-sweep", perfbench::make_risk_sweep},
       {"drill", perfbench::make_drill}};

  perfbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const auto factory = factories.find(options.workload);
  if (factory == factories.end()) return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const std::unique_ptr<Workload> workload = factory->second(options.seed);
    return perfbench::run_benchmark(*workload, options);
  } catch (const std::exception& error) {
    std::cerr << "netent_perfbench: " << error.what() << '\n';
    return 1;
  }
}
