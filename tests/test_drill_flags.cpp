// The drill benches' `--faults` flag (bench/drill_flags.h): a host range is
// checked against the fleet before it is expanded into one fault per host.
#include "drill_flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace netent::bench {
namespace {

/// Runs apply_drill_flags on `args` (argv[0] is supplied).
void apply(const std::vector<std::string>& args, sim::DrillConfig& config) {
  std::vector<std::string> storage{"bench"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  apply_drill_flags(static_cast<int>(argv.size()), argv.data(), config);
}

TEST(DrillFlags, ExpandsHostRangeInsideTheFleet) {
  sim::DrillConfig config;
  config.host_count = 200;
  apply({"--faults=crash@600:197-199,partition@700,restart@900:3"}, config);
  ASSERT_EQ(config.faults.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(config.faults[i].kind, sim::DrillFault::Kind::agent_crash);
    EXPECT_EQ(config.faults[i].at_seconds, 600.0);
    EXPECT_EQ(config.faults[i].host, 197 + i);
  }
  EXPECT_EQ(config.faults[3].kind, sim::DrillFault::Kind::store_partition);
  EXPECT_EQ(config.faults[4].kind, sim::DrillFault::Kind::agent_restart);
  EXPECT_EQ(config.faults[4].host, 3u);
}

TEST(DrillFlags, RejectsHostRangeBeyondTheFleet) {
  sim::DrillConfig config;
  config.host_count = 200;
  EXPECT_THROW(apply({"--faults=crash@600:0-200"}, config), std::invalid_argument);
  EXPECT_THROW(apply({"--faults=down@600:200"}, config), std::invalid_argument);
  // 10^11 hosts: rejected before the range is expanded.
  EXPECT_THROW(apply({"--faults=crash@600:0-99999999999"}, config), std::invalid_argument);
  EXPECT_TRUE(config.faults.empty());
}

TEST(DrillFlags, RejectsHostRangeEndingAtTheLargestIndex) {
  // hi = SIZE_MAX: an unchecked `host <= hi` loop would never end.
  sim::DrillConfig config;
  config.host_count = 200;
  EXPECT_THROW(apply({"--faults=crash@600:0-18446744073709551615"}, config),
               std::invalid_argument);
  EXPECT_TRUE(config.faults.empty());
}

}  // namespace
}  // namespace netent::bench
