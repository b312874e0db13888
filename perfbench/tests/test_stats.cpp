// Unit test of the benchmark's statistics helper: the tail percentile is the
// highest one with at least ten samples beyond it, every summary carries its
// sample count, and a metric name can be emitted only once.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);  // 1..n
  return values;
}

TEST(Summarize, PicksP99OnlyWithTenSamplesBeyond) {
  const Summary at_1000 = summarize(ramp(1000));
  EXPECT_EQ(at_1000.tail_percentile, 99.0);
  EXPECT_EQ(at_1000.tail, 990.0);  // 10 samples (991..1000) lie beyond it

  const Summary at_999 = summarize(ramp(999));  // p99 would leave only 9
  EXPECT_EQ(at_999.tail_percentile, 95.0);
}

TEST(Summarize, WalksDownTheLadder) {
  EXPECT_EQ(summarize(ramp(10000)).tail_percentile, 99.9);
  EXPECT_EQ(summarize(ramp(200)).tail_percentile, 95.0);
  EXPECT_EQ(summarize(ramp(100)).tail_percentile, 90.0);
  EXPECT_EQ(summarize(ramp(40)).tail_percentile, 75.0);
}

TEST(Summarize, TooFewSamplesReportNoTail) {
  const Summary small = summarize(ramp(39));
  EXPECT_EQ(small.count, 39u);
  EXPECT_EQ(small.tail_percentile, 0.0);
  EXPECT_EQ(small.tail, 0.0);
  EXPECT_NE(describe(small, "ms").find("no tail"), std::string::npos);
}

TEST(Summarize, ReportsMedianAndSampleCount) {
  const Summary odd = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(odd.count, 3u);
  EXPECT_EQ(odd.median, 3.0);
  const Summary even = summarize({4.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(even.median, 2.5);
  EXPECT_NE(describe(summarize(ramp(1000)), "ms").find("(n=1000)"), std::string::npos);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(SamplesBeyond, CountsStrictlyGreaterRanks) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(100, 50.0), 50u);
  EXPECT_EQ(samples_beyond(1, 99.9), 0u);
}

TEST(MetricSet, RejectsDuplicateNames) {
  MetricSet metrics;
  metrics.add("shard_4_speedup", 1.5, "x");
  EXPECT_THROW(metrics.add("shard_4_speedup", 1.6, "x"), std::invalid_argument);
  EXPECT_EQ(metrics.metrics().size(), 1u);
}

TEST(MetricSet, RejectsNonFiniteValues) {
  MetricSet metrics;
  EXPECT_THROW(metrics.add("nan", std::numeric_limits<double>::quiet_NaN(), "ms"),
               std::invalid_argument);
}

TEST(MetricSet, WritesEveryDigit) {
  MetricSet metrics;
  metrics.add("latency_ms", 1.2345678901234567, "ms");
  std::ostringstream out;
  metrics.write_json(out);
  EXPECT_EQ(out.str(), R"({"latency_ms": {"value": 1.2345678901234567, "unit": "ms"}})");
}

}  // namespace
}  // namespace perfbench
