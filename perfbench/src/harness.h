// The benchmark harness: one Workload interface and the two run modes.
//
// Timed run (--trace 0): set up kSetups times (each timed; the median is
// setup_s), warm up after each, then measure steps on the last state for the
// requested wall seconds and check the outputs. End-to-end metrics only, in
// wall time; no span is recorded.
//
// Traced run (--trace 1): phase A measures untraced for half the seconds;
// then a fresh set-up with the same seed runs exactly as many steps with the
// tracer on (phase B). Per-layer metrics come from phase B's spans, obs
// deltas and the run's getrusage; the tracing overhead is B's wall time minus
// A's for the same work.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans ("" = nowhere)
};

/// What the traced phase saw, for Workload::layer_metrics.
struct TracedPhase {
  /// Span totals by name (the traced steps and the traced set-up).
  std::map<std::string, Tracer::NameTotals> spans;
  const ObsReading& before;
  const ObsReading& after;
  double wall_s = 0.0;   ///< measured wall time of the traced steps
  double setup_s = 0.0;  ///< wall time of the traced set-up (its spans are in `spans` too)

  /// Share of the traced wall time, in percent, of `ms` milliseconds.
  [[nodiscard]] double pct_of_wall(double ms) const {
    return wall_s > 0.0 ? 100.0 * ms / (1000.0 * wall_s) : 0.0;
  }
  [[nodiscard]] double span_ms(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  }
  [[nodiscard]] double span_count(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  [[nodiscard]] double span_p50_ms(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second.durations_ms);
  }
  [[nodiscard]] double counter(const std::string& name) const {
    return ObsReading::counter_delta(before, after, name);
  }
  [[nodiscard]] double timer_ms(const std::string& name) const {
    return 1000.0 * ObsReading::timer_seconds(before, after, name);
  }
  [[nodiscard]] double timer_count(const std::string& name) const {
    return ObsReading::timer_count(before, after, name);
  }
};

/// Per-layer metrics a traced run reports (`values`, every one named in
/// layer_catalog()) plus the detail lines only the report prints.
struct LayerReport {
  std::map<std::string, double> values;
  MetricSet detail;
};

/// Every per-layer metric of a traced run, with its unit, in output order.
/// Each workload reports the ones on its path; the rest read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_catalog();

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The unit of work throughput_per_s counts ("requests", ...).
  [[nodiscard]] virtual std::string unit() const = 0;
  /// The latency kind whose median is p50_ms.
  [[nodiscard]] virtual std::string headline() const = 0;

  /// Builds fresh state from the seed (timed as one set-up).
  virtual void setup(Tracer& tracer) = 0;
  /// Untimed warm-up on fresh state; excluded from every statistic.
  virtual void warm_up() {}
  /// Untimed; drops the state before the next set-up.
  virtual void teardown() {}

  struct Step {
    double units = 0.0;  ///< work completed, in unit()
    /// Checks and state rebuilds inside the step, excluded from its time.
    double untimed_cpu_s = 0.0;
    double untimed_wall_s = 0.0;
  };
  virtual Step step(Tracer& tracer, std::uint64_t index) = 0;
  /// Untimed output checks after a measured phase (record them with expect).
  virtual void check() = 0;
  /// Traced runs only: extra spanned calls after the traced steps, outside
  /// the measured time (`steps` is how many steps the phase ran).
  virtual void diagnose(Tracer& /*tracer*/, std::size_t /*steps*/) {}
  /// Per-layer metrics from the traced phase.
  virtual void layer_metrics(const TracedPhase& phase, LayerReport& out) const = 0;
  /// Workload-specific end-to-end figures for the report (not the result line).
  virtual void report(MetricSet& out) const = 0;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  /// Wall-time samples (ms) per latency kind.
  [[nodiscard]] const std::map<std::string, std::vector<double>>& latencies() const {
    return latencies_;
  }
  /// CPU-time samples (ms, every thread) of the kinds timed by record().
  [[nodiscard]] const std::map<std::string, std::vector<double>>& cpu_latencies() const {
    return cpu_latencies_;
  }
  void clear_latencies() {
    latencies_.clear();
    cpu_latencies_.clear();
  }
  void count_exception(const std::exception& error) {
    attempt(false, std::string("exception: ") + error.what());
  }

 protected:
  void record_ms(const std::string& kind, double ms) { latencies_[kind].push_back(ms); }
  /// One sample of `kind` from `watch`, in wall and in CPU time, each
  /// divided by `per` (a sample per tick of a whole drill, say).
  void record(const std::string& kind, const Stopwatch& watch, double per = 1.0) {
    const double wall_ms = 1000.0 * watch.wall_s();
    const double cpu_ms = watch.cpu_ms();
    latencies_[kind].push_back(wall_ms / per);
    cpu_latencies_[kind].push_back(cpu_ms / per);
  }
  /// One operation attempted; `ok` false counts it failed.
  void attempt(bool ok, const std::string& what = "operation failed");
  /// One output check: counted as an attempted operation, failed if !ok.
  void expect(bool ok, const std::string& what) { attempt(ok, "check failed: " + what); }
  /// Median/tail summary of one latency kind, added to `out` as
  /// `<prefix>_p50_ms` and `<prefix>_p<tail>_ms` (the tail only when the
  /// sample count supports it).
  void report_latency(MetricSet& out, const std::string& kind, const std::string& prefix) const;

  std::uint64_t seed_;

 private:
  std::map<std::string, std::vector<double>> latencies_;
  std::map<std::string, std::vector<double>> cpu_latencies_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Runs `workload` as `options` asks, printing the report and then the
/// result line (the last line of standard output). Returns the exit code.
int run_benchmark(Workload& workload, const Options& options);

}  // namespace perfbench
