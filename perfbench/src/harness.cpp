#include "harness.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/exec_config.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"trace.overhead_pct", "%"},
      {"proc.user_cpu_pct", "%"},
      {"proc.sys_cpu_pct", "%"},
      {"proc.ctx_switches", "count"},
      {"service.requests", "count"},
      {"service.admit_pct", "%"},
      {"service.release_pct", "%"},
      {"service.resize_pct", "%"},
      {"service.audit_pct", "%"},
      {"service.window_pct", "%"},
      {"service.windows", "count"},
      {"service.rebuilds", "count"},
      {"service.shard_jobs", "count"},
      {"approval.assess_pct", "%"},
      {"approval.counter_proposals", "count"},
      {"risk.fastpath.hit_ratio", "ratio"},
      {"risk.fastpath.assessments", "count"},
      {"risk.fastpath.audit_violations", "count"},
      {"risk.sweep.placement_pct", "%"},
      {"risk.sweep.curve_build_pct", "%"},
      {"risk.replay.skip_ratio", "ratio"},
      {"risk.replay.demands", "count"},
      {"risk.scenarios_swept", "count"},
      {"topology.warm_pct", "%"},
      {"spec.fleet_self_pct", "%"},
      {"spec.policy.resolutions", "count"},
      {"spec.policy.accept_partial", "count"},
      {"spec.policy.move_regions", "count"},
      {"spec.policy.demote_qos", "count"},
      {"spec.policy.retry_later", "count"},
      {"spec.policy.give_up", "count"},
      {"sim.events.executed", "count"},
      {"sim.events.scheduled", "count"},
      {"sim.events.cancelled", "count"},
      {"enforce.agent.cycle_pct", "%"},
      {"enforce.ratestore.publishes", "count"},
      {"enforce.ratestore.deliveries", "count"},
      {"enforce.ratestore.reads", "count"},
  };
  return catalog;
}

void Workload::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Workload::report_latency(MetricSet& out, const std::string& kind,
                              const std::string& prefix) const {
  const auto it = latencies_.find(kind);
  const Summary summary = summarize(it == latencies_.end() ? std::vector<double>{} : it->second);
  out.add(prefix + "_p50_ms", summary.median, "ms");
  if (summary.tail_percentile > 0.0) {
    std::ostringstream name;
    name << prefix << "_p" << summary.tail_percentile << "_ms";
    out.add(name.str(), summary.tail, "ms");
  }
  out.add(prefix + "_samples", static_cast<double>(summary.count), "count");
}

namespace {

/// Set-ups per timed run; setup_s is their median.
constexpr std::size_t kSetups = 5;
/// Steps every phase runs, however long they take.
constexpr std::size_t kMinSteps = 2;

struct Phase {
  std::size_t steps = 0;
  double units = 0.0;
  double cpu_s = 0.0;   ///< measured CPU time, untimed parts of steps excluded
  double wall_s = 0.0;  ///< the same in wall time
  double steal_pct = 0.0;  ///< host steal while measuring
};

/// Runs steps until `seconds` of measured wall time pass (at least
/// `min_steps`, at most `max_steps`). Stops early when one more median-length
/// step would overrun the budget, so long steps do not blow the run time.
Phase measure(Workload& workload, Tracer& tracer, double seconds, std::size_t min_steps,
              std::size_t max_steps) {
  Phase phase;
  const HostSteal steal_before = HostSteal::now();
  std::vector<double> step_wall_s;
  while (phase.steps < max_steps) {
    if (phase.steps >= min_steps &&
        (phase.wall_s >= seconds || phase.wall_s + median(step_wall_s) > seconds)) {
      break;
    }
    const Stopwatch watch;
    Workload::Step step;
    try {
      step = workload.step(tracer, phase.steps);
    } catch (const std::exception& error) {
      workload.count_exception(error);  // a failed operation; keep measuring
    }
    const double wall_s = watch.wall_s() - step.untimed_wall_s;
    step_wall_s.push_back(wall_s);
    phase.cpu_s += watch.cpu_s() - step.untimed_cpu_s;
    phase.wall_s += wall_s;
    phase.units += step.units;
    ++phase.steps;
  }
  phase.steal_pct = HostSteal::pct(steal_before, HostSteal::now());
  return phase;
}

struct SetupTime {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

SetupTime timed_setup(Workload& workload, Tracer& tracer) {
  const Stopwatch watch;
  workload.setup(tracer);
  return {watch.cpu_s(), watch.wall_s()};
}

void print_metrics(const MetricSet& metrics) {
  for (const Metric& metric : metrics.metrics()) {
    std::cout << "  " << std::left << std::setw(34) << metric.name << ' ' << std::setprecision(6)
              << metric.value << ' ' << metric.unit << '\n';
  }
}

void print_result(const Workload& workload, const MetricSet& metrics) {
  const bool correct = workload.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, workload.attempted())
            << ", \"failed\": " << workload.failed() << ", \"metrics\": ";
  metrics.write_json(std::cout);
  std::cout << "}" << std::endl;
}

void print_failures(const Workload& workload) {
  for (const std::string& failure : workload.failures()) std::cout << "FAILED: " << failure << '\n';
}

int run_timed(Workload& workload, const Options& options) {
  Tracer off(false);
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (i > 0) workload.teardown();
    const SetupTime setup = timed_setup(workload, off);
    setup_s.push_back(setup.wall_s);
    setup_cpu_s.push_back(setup.cpu_s);
    workload.warm_up();
  }
  workload.clear_latencies();
  const Phase phase =
      measure(workload, off, options.seconds, kMinSteps, std::numeric_limits<std::size_t>::max());
  workload.check();

  const auto headline = workload.latencies().find(workload.headline());
  MetricSet metrics;
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("peak_rss_mb", ProcUsage::now().peak_rss_mb, "MB");
  metrics.add("throughput_per_s", phase.units / phase.wall_s, "1/s");
  metrics.add("p50_ms",
              headline == workload.latencies().end() ? 0.0 : median(headline->second), "ms");

  MetricSet named;
  workload.report(named);
  std::cout << "set-ups: " << setup_s.size() << ", median " << median(setup_s) << " wall s, "
            << median(setup_cpu_s) << " CPU s; each (wall s):";
  for (const double s : setup_s) std::cout << ' ' << s;
  std::cout << '\n'
            << "measured: " << phase.steps << " steps, " << phase.units << ' ' << workload.unit()
            << " in " << phase.wall_s << " wall s, " << phase.cpu_s << " CPU s ("
            << phase.units / phase.cpu_s << " per CPU second)\n"
            << "host steal while measuring: " << phase.steal_pct << " % of busy CPU time\n";
  for (const auto& [kind, samples] : workload.latencies()) {
    std::cout << "latency " << kind << ": " << describe(summarize(samples), "ms");
    const auto cpu = workload.cpu_latencies().find(kind);
    if (cpu != workload.cpu_latencies().end()) {
      std::cout << "; CPU time p50 " << median(cpu->second) << " ms";
    }
    std::cout << '\n';
  }
  std::cout << "workload figures:\n";
  print_metrics(named);
  std::cout << "end-to-end metrics:\n";
  print_metrics(metrics);
  print_failures(workload);
  print_result(workload, metrics);
  return 0;
}

int run_traced(Workload& workload, const Options& options) {
  const Stopwatch run;
  // Phase A: untraced reference for the overhead figure.
  Tracer off(false);
  (void)timed_setup(workload, off);
  workload.warm_up();
  workload.clear_latencies();
  const Phase untraced = measure(workload, off, options.seconds / 2.0, kMinSteps,
                                std::numeric_limits<std::size_t>::max());
  workload.check();
  workload.teardown();

  // Phase B: the same work on fresh state of the same seed, traced.
  Tracer tracer(true);
  const double setup_s = timed_setup(workload, tracer).wall_s;
  workload.warm_up();
  workload.clear_latencies();
  const ObsReading before = ObsReading::now();
  const Phase traced = measure(workload, tracer, 0.0, untraced.steps, untraced.steps);
  workload.diagnose(tracer, traced.steps);
  const ObsReading after = ObsReading::now();
  workload.check();
  const ProcUsage usage = ProcUsage::now();

  LayerReport layers;
  const TracedPhase phase{tracer.totals(), before, after, traced.wall_s, setup_s};
  workload.layer_metrics(phase, layers);
  layers.values["trace.overhead_pct"] =
      100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s;
  // Whole run (both phases and their set-ups), as a share of one core's
  // time: a serial phase alone can spend no measurable kernel time at all.
  const double process_s = run.wall_s();
  layers.values["proc.user_cpu_pct"] = 100.0 * usage.user_s / process_s;
  layers.values["proc.sys_cpu_pct"] = 100.0 * usage.sys_s / process_s;
  layers.values["proc.ctx_switches"] = usage.ctx_switches;

  MetricSet metrics;
  for (const auto& [name, unit] : layer_catalog()) {
    const auto it = layers.values.find(name);
    metrics.add(name, it == layers.values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layers.values) {
    if (!metrics.contains(name)) throw std::logic_error("per-layer metric not in catalog: " + name);
  }

  std::cout << "untraced: " << untraced.steps << " steps in " << untraced.wall_s
            << " wall s; traced: " << traced.steps << " steps in " << traced.wall_s << " wall s\n"
            << "tracing overhead: " << (traced.wall_s - untraced.wall_s) * 1000.0 << " ms ("
            << layers.values["trace.overhead_pct"] << " %)\n"
            << "host steal while tracing: " << traced.steal_pct << " % of busy CPU time\n";
  std::cout << "spans (traced phase and its set-up): " << tracer.span_count() << '\n';
  for (const auto& [name, totals] : phase.spans) {
    const Summary summary = summarize(totals.durations_ms);
    std::cout << "  " << std::left << std::setw(46) << name << " total " << std::setprecision(6)
              << totals.total_ms << " ms, self " << totals.self_ms << " ms, "
              << describe(summary, "ms") << '\n';
  }
  std::cout << "per-layer detail:\n";
  print_metrics(layers.detail);
  std::cout << "per-layer metrics:\n";
  print_metrics(metrics);
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    std::cout << "spans written to " << path << (tracer.write_json(path) ? "" : " (FAILED)")
              << '\n';
  }
  print_failures(workload);
  print_result(workload, metrics);
  return 0;
}

}  // namespace

int run_benchmark(Workload& workload, const Options& options) {
  std::cout << "workload " << options.workload << ", seed " << options.seed << ", "
            << options.seconds << " s, trace " << (options.trace ? 1 : 0) << '\n'
            << "cores " << std::thread::hardware_concurrency() << ", default exec threads "
            << netent::common::ExecConfig{}.resolve() << '\n';
  return options.trace ? run_traced(workload, options) : run_timed(workload, options);
}

}  // namespace perfbench
