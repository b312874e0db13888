// The pool behind fan_out(), the library's one parallel loop (risk
// scenarios, admission residual cells). parallel_for_with_worker() is its
// only entry point: the calling thread and the workers it enlists claim
// indices from one atomic counter, and invocations write to index-addressed
// slots, so results are bit-identical to a serial loop regardless of thread
// count — only the schedule is nondeterministic.
//
// The library's sweeps do not own pools: they go through fan_out(), which
// either runs the loop inline or lends it to the one process-wide pool
// (ThreadPool::shared()), so no call pays for a thread spawn and join.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace netent {

/// Work, in placements (one topology::water_fill_demand call each), below
/// which fan_out() runs its loop inline on the caller. Waking pool workers
/// and joining them costs about as much as a thousand placements, so a
/// smaller loop is cheaper serial: bench_micro's fan-out crossover section
/// measures where the shared pool starts to win (512-2048 placements on a
/// 4-core VM), and the cutoff sits above that, where the pool is ~1.6-2.3x
/// faster. The admission commit of one small admit (3 realizations x 188
/// scenarios x 1 demand = 564 placements) stays inline; a residual rebuild
/// at 2k contracts (~1.1 M placements) fans out.
inline constexpr std::size_t kFanOutCutoffPlacements = 4096;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). On Linux each worker is
  /// pinned to one core of the creating thread's affinity set, round-robin,
  /// so a woken worker runs on its own core instead of queueing behind the
  /// thread that woke it, and a fan-out knows where each sleeping worker
  /// would run.
  explicit ThreadPool(std::size_t num_threads = default_thread_count());

  /// Wakes every worker, which runs every already-queued helper job, then
  /// joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// The process-wide pool behind fan_out(): default_thread_count() workers,
  /// started on first use and joined at process exit. Any number of threads
  /// may fan out on it at once.
  [[nodiscard]] static ThreadPool& shared();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs body(worker, i) exactly once for every i in [0, count) and
  /// returns once all invocations finished. The calling thread (slot
  /// `helpers`) and at most `max_helpers` workers (slots 0..helpers-1) claim
  /// indices one at a time from a shared counter, so uneven per-index cost
  /// balances out; each slot is used by one thread at a time, so per-slot
  /// scratch needs no locking. The caller drains indices itself and only
  /// waits for invocations already running, so the loop finishes even when
  /// every worker is busy, and calling it from inside a pool job cannot
  /// deadlock. The lowest throwing index's exception is rethrown.
  ///
  /// The loop queues one helper job per helper slot and wakes up to that
  /// many sleeping workers, chosen by workers_to_wake() against the core the
  /// caller runs on.
  void parallel_for_with_worker(
      std::size_t count, const std::function<void(std::size_t worker, std::size_t index)>& body,
      std::size_t max_helpers = std::numeric_limits<std::size_t>::max());

  /// The sleeping workers a fan-out with `helpers` helper jobs wakes, as
  /// positions in `sleeping_cores` (the core each sleeping worker is pinned
  /// to, -1 when unknown), given the core the caller runs on (-1 when
  /// unknown). A worker pinned to the caller's core cannot run until the
  /// caller blocks, and the caller drains indices until none is left, so it
  /// is woken only when no worker elsewhere sleeps; otherwise workers are
  /// taken in order, at most `helpers` of them.
  [[nodiscard]] static std::vector<std::size_t> workers_to_wake(
      std::span<const int> sleeping_cores, int caller_core, std::size_t helpers);

 private:
  /// One worker's wake slot. A sleeping worker waits on its own condition
  /// variable, so a fan-out chooses which workers it wakes.
  struct Slot {
    std::condition_variable wake;
    int core = -1;        ///< the core the worker is pinned to (-1: not pinned)
    bool asleep = false;  ///< guarded by mutex_; cleared by whoever wakes it
  };

  void worker_loop(Slot& slot);

  /// Helper jobs not yet taken by a worker. Every job drains some loop's
  /// index counter, so any idle worker may run any job: one FIFO serves all.
  /// A worker sleeps only while it is empty.
  std::mutex mutex_;
  std::deque<std::function<void()>> jobs_;  ///< guarded by mutex_
  bool stop_ = false;                       ///< guarded by mutex_
  std::vector<Slot> slots_;                 ///< [worker]; sized once, never moved

  std::vector<std::thread> workers_;
};

/// One worker slot's scratch on cache lines of its own. Slots of one
/// fan-out are written concurrently by different threads; scratch that
/// shared a line with its neighbour's (a vector header written per
/// placement, say) would bounce that line between cores on every write.
template <typename T>
struct alignas(64) CacheAligned {
  T value;
};

/// Worker slots fan_out() hands its body for this shape: 1 when the loop
/// runs inline, otherwise the shared-pool workers it enlists plus the
/// caller. Size per-slot scratch with it.
[[nodiscard]] std::size_t fan_out_width(std::size_t threads, std::size_t items,
                                        std::size_t placements);

/// The library's one fan-out: runs body(worker, i) once for every i in
/// [0, items), with `worker` < fan_out_width(threads, items, placements).
/// `placements` is the loop's total work. The loop runs inline on the
/// caller (worker 0, ascending i) when `threads` <= 1, `items` < 2 or
/// `placements` < kFanOutCutoffPlacements; otherwise it runs on the shared
/// pool with at most `threads` workers plus the caller (so `threads` above
/// the core count is capped at the core count). Either way the lowest
/// throwing index's exception is rethrown, and results written to
/// index-addressed slots are identical.
void fan_out(std::size_t threads, std::size_t items, std::size_t placements,
             const std::function<void(std::size_t worker, std::size_t index)>& body);

}  // namespace netent
