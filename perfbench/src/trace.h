// Tracing for the benchmark's traced run, recorded entirely from the
// benchmark's own files:
//
//  * Tracer: spans (name, start, end, parent; the spans of one request share
//    its id) opened around each call into a layer's public functions, kept
//    in memory and written out as JSON when the run ends. A span's self time
//    is its duration minus the part of it covered by its child spans.
//  * ObsReading: a point-in-time read of the program's own obs counters and
//    timer histograms; the difference of two readings is what a phase did.
//  * ProcUsage: getrusage for the whole process (CPU time, context switches,
//    peak resident set).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: ends when destroyed. A disabled tracer hands out inert
  /// scopes that read no clock.
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span named `name` for request `request`, nested under the
  /// innermost open span.
  [[nodiscard]] Scope span(std::string_view name, std::uint64_t request);

  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;
  };
  /// Per span name: count, summed duration, summed self time, durations.
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Writes every span as JSON (times in microseconds since the tracer was
  /// created). Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Counters and timer histograms of the process-global obs registry.
struct ObsReading {
  std::map<std::string, std::uint64_t> counters;
  struct Timer {
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
    std::vector<double> bounds;           ///< bucket upper bounds, seconds
    std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 counts
  };
  std::map<std::string, Timer> timers;

  [[nodiscard]] static ObsReading now();
  /// `after - before` for a counter (0 when it was never registered).
  [[nodiscard]] static double counter_delta(const ObsReading& before, const ObsReading& after,
                                            const std::string& name);
  /// Summed seconds recorded into a timer histogram between the readings.
  [[nodiscard]] static double timer_seconds(const ObsReading& before, const ObsReading& after,
                                            const std::string& name);
  [[nodiscard]] static double timer_count(const ObsReading& before, const ObsReading& after,
                                          const std::string& name);
  /// Mean seconds per sample between the readings, from the bucket counts
  /// (each sample at its bucket's midpoint). Unlike the sum, which obs keeps
  /// in whole microseconds per sample, this resolves sub-microsecond timers.
  [[nodiscard]] static double timer_bucket_mean(const ObsReading& before, const ObsReading& after,
                                                const std::string& name);
};

struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  double peak_rss_mb = 0.0;

  [[nodiscard]] static ProcUsage now();
};

/// Process CPU time (every thread) and wall time since construction.
///
/// The benchmark's timings are wall time, as a user of the library waits
/// for it. The report prints the CPU time of the same work beside it: on a
/// shared host, wall time also counts the time the host hands this
/// machine's CPUs to someone else (steal, see HostSteal).
class Stopwatch {
 public:
  Stopwatch() : wall_(std::chrono::steady_clock::now()), cpu_(cpu_now()) {}

  [[nodiscard]] double cpu_s() const { return cpu_now() - cpu_; }
  [[nodiscard]] double cpu_ms() const { return 1000.0 * cpu_s(); }
  [[nodiscard]] double wall_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_).count();
  }

 private:
  [[nodiscard]] static double cpu_now();

  std::chrono::steady_clock::time_point wall_;
  double cpu_;
};

/// Share of busy CPU time the host stole from this machine between two
/// reads of /proc/stat (a report diagnostic; 0 where it is unavailable).
struct HostSteal {
  double busy = 0.0;
  double steal = 0.0;
  [[nodiscard]] static HostSteal now();
  [[nodiscard]] static double pct(const HostSteal& before, const HostSteal& after);
};

}  // namespace perfbench
