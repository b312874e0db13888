// drill: the §6 enforcement drill on sim::DrillEngine with 250 hosts, agent
// timer phases jittered by one tick and the default ACL schedule. Serial by
// default. The only workload through sim and enforce, and it touches no
// admission code: the no-change control for admission and risk changes.
//
// Each step is one whole 210-minute drill. At 2000 hosts a drill takes 7-9 s,
// so a run held two of them; at 250 hosts it takes under a second and a run's
// medians are over ~25 drills. Set-up is one unmeasured whole drill, which
// builds and warms every host's agent, classifier and meter.
//
// Each drill, set-up drills included, runs pinned to the next core of the
// process's affinity set in turn. On a shared host one core can run the drill
// a third slower than another for tens of seconds at a time; a serial drill
// left where the scheduler put it followed one core's luck for a whole run.
#include <sched.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/drill.h"
#include "sim/drill_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace netent;

constexpr const char* kRunSpan = "sim.DrillEngine::run";
constexpr std::size_t kHosts = 250;
/// Agent metering cycles are timed one in 16 (enforce/agent.cpp).
constexpr double kCycleSampling = 16.0;

/// Pins the calling thread to the cores of the process's affinity set in
/// turn, one core per next(); each Pin restores the whole set when it ends.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cores_.push_back(cpu);
    }
  }

  class Pin {
   public:
    Pin(const CoreRotation& rotation, int core) : rotation_(rotation) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(core, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
    }
    ~Pin() { (void)sched_setaffinity(0, sizeof(rotation_.all_), &rotation_.all_); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    const CoreRotation& rotation_;
  };

  /// Pins to the next core; a process with one core (or no affinity) stays put.
  [[nodiscard]] std::optional<Pin> next() {
    if (cores_.size() < 2) return std::nullopt;
    return std::optional<Pin>(std::in_place, *this, cores_[turn_++ % cores_.size()]);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cores_;
  std::size_t turn_ = 0;
};

std::uint64_t ticks_fingerprint(const std::vector<sim::DrillTick>& ticks) {
  Fingerprint fp;
  for (const sim::DrillTick& t : ticks) {
    for (const double value :
         {t.t_seconds, t.acl_drop_fraction, t.entitled, t.demand, t.total_rate, t.conform_rate,
          t.conform_loss_ratio, t.nonconform_loss_ratio, t.conform_rtt_ms, t.nonconform_rtt_ms,
          t.conform_syn_per_s, t.nonconform_syn_per_s, t.nonconform_rst_per_s,
          t.conform_fin_per_s, t.read_latency_ms, t.write_latency_ms, t.block_error_rate}) {
      fp.mix(std::bit_cast<std::uint64_t>(value));
    }
  }
  return fp.hash;
}

class Drill final : public Workload {
 public:
  explicit Drill(std::uint64_t seed) : Workload(seed) {
    config_.host_count = kHosts;
    config_.phase_jitter_seconds = config_.tick_seconds;
  }

  [[nodiscard]] std::string unit() const override { return "events"; }
  [[nodiscard]] std::string headline() const override { return "tick"; }

  void setup(Tracer& /*tracer*/) override {
    sim::DrillEngine engine(config_, Rng(seed_));
    const auto pin = cores_.next();
    expect(!engine.run().empty(), "set-up drill recorded no ticks");
    stats_ = {};
    wall_ms_ = 0.0;
  }

  Step step(Tracer& tracer, std::uint64_t index) override {
    sim::DrillEngine engine(config_, Rng(seed_));
    const auto pin = cores_.next();
    const Stopwatch watch;
    std::vector<sim::DrillTick> ticks;
    {
      const auto span = tracer.span(kRunSpan, index);
      ticks = engine.run();
    }
    const double ms = 1000.0 * watch.wall_s();
    const sim::DrillEngineStats& stats = engine.stats();
    record("tick", watch, static_cast<double>(std::max<std::uint64_t>(1, stats.ticks_recorded)));
    wall_ms_ += ms;
    stats_.events_executed += stats.events_executed;
    stats_.events_scheduled += stats.events_scheduled;
    stats_.events_cancelled += stats.events_cancelled;
    stats_.ticks_recorded += stats.ticks_recorded;

    const Stopwatch untimed;
    const std::uint64_t fingerprint = ticks_fingerprint(ticks);
    if (!fingerprint_) fingerprint_ = fingerprint;
    expect(*fingerprint_ == fingerprint, "drill tick series differs between runs of one seed");
    double worst_conform_loss = 0.0;
    for (const sim::DrillTick& tick : ticks) {
      worst_conform_loss = std::max(worst_conform_loss, tick.conform_loss_ratio);
    }
    worst_conform_loss_ = std::max(worst_conform_loss_, worst_conform_loss);
    expect(worst_conform_loss == 0.0, "conforming traffic lost packets");
    return {static_cast<double>(stats.events_executed), untimed.cpu_s(), untimed.wall_s()};
  }

  void check() override {}

  void layer_metrics(const TracedPhase& phase, LayerReport& out) const override {
    const double cycles = phase.timer_count("enforce.agent.cycle_seconds");
    const double cycle_ms =
        1000.0 * cycles * ObsReading::timer_bucket_mean(phase.before, phase.after,
                                                        "enforce.agent.cycle_seconds");
    auto& v = out.values;
    v["sim.events.executed"] = static_cast<double>(stats_.events_executed);
    v["sim.events.scheduled"] = static_cast<double>(stats_.events_scheduled);
    v["sim.events.cancelled"] = static_cast<double>(stats_.events_cancelled);
    v["enforce.agent.cycle_pct"] = phase.pct_of_wall(kCycleSampling * cycle_ms);
    v["enforce.ratestore.publishes"] = phase.counter("enforce.ratestore.publishes");
    v["enforce.ratestore.deliveries"] = phase.counter("enforce.ratestore.deliveries");
    v["enforce.ratestore.reads"] = phase.counter("enforce.ratestore.reads");

    MetricSet& d = out.detail;
    const double host_ticks =
        static_cast<double>(config_.host_count) * static_cast<double>(stats_.ticks_recorded);
    d.add("sim.per_host_tick_ns", host_ticks > 0 ? 1e6 * wall_ms_ / host_ticks : 0.0, "ns");
    d.add("enforce.agent.cycle_us", cycles > 0 ? 1000.0 * cycle_ms / cycles : 0.0, "us");
    d.add("events_per_s",
          wall_ms_ > 0 ? 1000.0 * static_cast<double>(stats_.events_executed) / wall_ms_ : 0.0,
          "1/s");
  }

  void report(MetricSet& out) const override {
    report_latency(out, "tick", "tick");
    out.add("events_per_s",
            wall_ms_ > 0 ? 1000.0 * static_cast<double>(stats_.events_executed) / wall_ms_ : 0.0,
            "1/s");
    out.add("ticks_recorded", static_cast<double>(stats_.ticks_recorded), "count");
    out.add("worst_conform_loss", worst_conform_loss_, "ratio");
  }

 private:
  sim::DrillConfig config_;
  CoreRotation cores_;
  sim::DrillEngineStats stats_;
  double wall_ms_ = 0.0;
  double worst_conform_loss_ = 0.0;
  std::optional<std::uint64_t> fingerprint_;
};

}  // namespace

std::unique_ptr<Workload> make_drill(std::uint64_t seed) { return std::make_unique<Drill>(seed); }

}  // namespace perfbench
