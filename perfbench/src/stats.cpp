#include "stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-6));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-6));
  return n - std::min(rank, n);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = median(samples);
  for (const double p : kTailLadder) {
    if (samples_beyond(samples.size(), p) >= kTailMargin) {
      summary.tail_percentile = p;
      summary.tail = nearest_rank(samples, p);
      break;
    }
  }
  return summary;
}

std::string describe(const Summary& summary, const std::string& unit) {
  std::ostringstream out;
  out << std::setprecision(4) << "p50 " << summary.median << ' ' << unit;
  if (summary.tail_percentile > 0.0) {
    out << ", p" << summary.tail_percentile << ' ' << summary.tail << ' ' << unit;
  } else {
    out << ", no tail (too few samples)";
  }
  out << " (n=" << summary.count << ')';
  return out.str();
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  if (contains(name)) throw std::invalid_argument("duplicate metric name: " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric value: " + name);
  metrics_.push_back({name, value, unit});
}

bool MetricSet::contains(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& metric) { return metric.name == name; });
}

void MetricSet::write_json(std::ostream& out) const {
  std::ostringstream text;
  text << std::setprecision(17) << '{';
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    text << (i == 0 ? "" : ", ") << '"' << metric.name << "\": {\"value\": " << metric.value
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  text << '}';
  out << text.str();
}

}  // namespace perfbench
