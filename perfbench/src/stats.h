// The benchmark's one statistics helper. Every timing it reports goes
// through summarize(): the median plus the highest percentile that still has
// at least kTailMargin samples beyond it, always with the sample count, so a
// "p99" is never taken over a handful of probes. MetricSet is the ordered
// name -> (value, unit) map the result line is printed from; it refuses a
// name twice, so no metric can be emitted under a duplicate key.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailMargin = 10;

/// Candidate tail percentiles, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  /// The tail percentile chosen from kTailLadder (0 when the sample count is
  /// too small for any of them; `tail` is then 0 too).
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// Nearest-rank percentile of ascending `sorted` (p in (0, 100]).
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Median and the highest ladder percentile with >= kTailMargin samples
/// beyond it. An empty input yields an all-zero summary.
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// "p50 1.23 ms, p99 4.56 ms (n=1000)" — the report line for one summary.
[[nodiscard]] std::string describe(const Summary& summary, const std::string& unit);

/// Median of `values` (0 for an empty input).
[[nodiscard]] double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metrics; add() throws std::invalid_argument when the
/// name is already present or the value is not finite.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  void write_json(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
