#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "obs/metrics.h"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Scope Tracer::span(std::string_view name, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, 0);
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return Scope(this, spans_.size() - 1);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    NameTotals& entry = totals[names_[spans_[i].name]];
    ++entry.count;
    entry.total_ms += ms;
    entry.self_ms += ms - child_ms[i];
    entry.durations_ms.push_back(ms);
  }
  return totals;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \"" << names_[span.name]
        << "\", \"request\": " << span.request << ", \"parent\": " << span.parent
        << ", \"start_us\": " << span.start_ns / 1000 << ", \"end_us\": " << span.end_ns / 1000
        << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ObsReading ObsReading::now() {
  ObsReading reading;
  const netent::obs::Snapshot snapshot = netent::obs::Registry::global().snapshot();
  for (const auto& counter : snapshot.counters) reading.counters[counter.name] = counter.value;
  for (const auto& histogram : snapshot.histograms) {
    reading.timers[histogram.name] = {histogram.total_count, histogram.sum, histogram.bounds,
                                      histogram.counts};
  }
  return reading;
}

namespace {

template <typename Map>
const typename Map::mapped_type* find(const Map& map, const std::string& name) {
  const auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

double ObsReading::counter_delta(const ObsReading& before, const ObsReading& after,
                                 const std::string& name) {
  const auto* b = find(before.counters, name);
  const auto* a = find(after.counters, name);
  if (a == nullptr) return 0.0;
  return static_cast<double>(*a - (b == nullptr ? 0 : *b));
}

double ObsReading::timer_seconds(const ObsReading& before, const ObsReading& after,
                                 const std::string& name) {
  const auto* b = find(before.timers, name);
  const auto* a = find(after.timers, name);
  if (a == nullptr) return 0.0;
  return a->sum_seconds - (b == nullptr ? 0.0 : b->sum_seconds);
}

double ObsReading::timer_count(const ObsReading& before, const ObsReading& after,
                               const std::string& name) {
  const auto* b = find(before.timers, name);
  const auto* a = find(after.timers, name);
  if (a == nullptr) return 0.0;
  return static_cast<double>(a->count - (b == nullptr ? 0 : b->count));
}

double ObsReading::timer_bucket_mean(const ObsReading& before, const ObsReading& after,
                                     const std::string& name) {
  const auto* b = find(before.timers, name);
  const auto* a = find(after.timers, name);
  if (a == nullptr || a->bounds.empty()) return 0.0;
  double samples = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < a->buckets.size(); ++i) {
    const std::uint64_t earlier = b != nullptr && i < b->buckets.size() ? b->buckets[i] : 0;
    const auto count = static_cast<double>(a->buckets[i] - earlier);
    const double upper = i < a->bounds.size() ? a->bounds[i] : a->bounds.back();
    const double lower = i == 0 ? 0.0 : a->bounds[std::min(i, a->bounds.size()) - 1];
    samples += count;
    total += count * 0.5 * (lower + upper);
  }
  return samples > 0.0 ? total / samples : 0.0;
}

double Stopwatch::cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostSteal HostSteal::now() {
  // "cpu user nice system idle iowait irq softirq steal ..." in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string label;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  stat >> label >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!stat || label != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

double HostSteal::pct(const HostSteal& before, const HostSteal& after) {
  const double busy = after.busy - before.busy;
  const double steal = after.steal - before.steal;
  return busy + steal > 0.0 ? 100.0 * steal / (busy + steal) : 0.0;
}

ProcUsage ProcUsage::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcUsage result;
  result.user_s = seconds(usage.ru_utime);
  result.sys_s = seconds(usage.ru_stime);
  result.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  // VmHWM is this program's own high-water mark; ru_maxrss can carry over the
  // resident size of the process that forked it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      result.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
      return result;
    }
  }
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return result;
}

}  // namespace perfbench
