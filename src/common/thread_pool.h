// A small work-stealing thread pool for the embarrassingly-parallel sweeps
// (risk scenarios, admission residual cells, per-host drill loops). Each
// worker owns a deque; submit() distributes round-robin, idle workers steal
// from the back of their peers' deques. parallel_for() is the intended entry
// point for deterministic fan-out: invocations write to index-addressed
// slots, so results are bit-identical to a serial loop regardless of thread
// count — only the schedule is nondeterministic.
//
// The library's sweeps do not own pools: they go through fan_out(), which
// either runs the loop inline or lends it to the one process-wide pool
// (ThreadPool::shared()), so no call pays for a thread spawn and join.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netent {

/// Work, in placements (one topology::water_fill_demand call each), below
/// which fan_out() runs its loop inline on the caller. Waking pool workers
/// and joining them costs about as much as a few thousand placements, so a
/// smaller loop is cheaper serial: bench_micro's fan-out crossover section
/// measures where the shared pool starts to win. The admission commit of
/// one small admit (3 realizations x 188 scenarios x 1 demand = 564
/// placements) stays inline; a residual rebuild at 2k contracts (~1.1 M
/// placements) fans out.
inline constexpr std::size_t kFanOutCutoffPlacements = 4096;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). On Linux each worker is
  /// pinned to one core of the creating thread's affinity set, round-robin,
  /// so a woken worker runs on its own core instead of queueing behind the
  /// thread that woke it.
  explicit ThreadPool(std::size_t num_threads = default_thread_count());

  /// Drains every already-submitted task, then joins the workers.
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

  /// Enqueues one task. The future completes when the task ran; a thrown
  /// exception is captured and rethrown from future::get(). A single-thread
  /// pool executes submissions in FIFO order.
  std::future<void> submit(std::function<void()> task);

  /// Runs body(i) exactly once for every i in [begin, end), spread over the
  /// workers plus the calling thread, and returns once all invocations
  /// finished. Indices are claimed dynamically (work stealing by atomic
  /// increment), so uneven per-index cost balances out. If any invocations
  /// throw, the exception of the lowest throwing index is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// As parallel_for(), but hands the body a worker slot alongside the
  /// index, and enlists at most `max_helpers` workers (slots 0..helpers-1;
  /// the calling thread takes slot `helpers`). Each slot is used by one
  /// thread at a time, so callers can pre-allocate one scratch workspace per
  /// slot and index it without locking. The caller drains indices itself
  /// and only waits for invocations already running, so the loop finishes
  /// even when every worker is busy elsewhere, and calling it from inside a
  /// pool task cannot deadlock.
  void parallel_for_with_worker(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t worker, std::size_t index)>& body,
      std::size_t max_helpers = std::numeric_limits<std::size_t>::max());

 private:
  /// One worker's deque. The owner pops from the front, thieves steal from
  /// the back.
  struct Queue {
    std::mutex mutex;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void enqueue(std::packaged_task<void()> task);
  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::packaged_task<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::uint64_t epoch_ = 0;  ///< bumped per submit, guarded by wake_mutex_
  bool stop_ = false;        ///< guarded by wake_mutex_

  std::size_t next_queue_ = 0;  ///< round-robin cursor, guarded by submit_mutex_
  std::mutex submit_mutex_;
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
