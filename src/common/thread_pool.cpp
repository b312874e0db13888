#include "common/thread_pool.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/check.h"

namespace netent {

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
#ifdef __linux__
  // Where every core is its own cache domain (common on VMs), the scheduler
  // wakes a sleeping worker on the core it last ran on, which drifts to the
  // waker's: the woken helper then preempts the fanning-out caller instead
  // of running beside it, for a whole scheduler tick. A pinned worker always
  // wakes on its own core.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cores;
  for (int core = 0; core < CPU_SETSIZE; ++core) {
    if (CPU_ISSET(core, &allowed)) cores.push_back(core);
  }
  if (cores.size() < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores[i % cores.size()], &one);
    (void)pthread_setaffinity_np(workers_[i].native_handle(), sizeof(one), &one);
  }
#endif
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping, and nothing left to run
    const std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    job();
  }
}

void ThreadPool::parallel_for_with_worker(
    std::size_t count, const std::function<void(std::size_t worker, std::size_t index)>& body,
    std::size_t max_helpers) {
  NETENT_EXPECTS(body != nullptr);
  if (count == 0) return;

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable finished;
    bool all_done = false;  ///< guarded by mutex
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr first_error;  ///< guarded by mutex
  };
  auto shared = std::make_shared<Shared>();

  // A helper that starts after every index was claimed returns without
  // touching `body`, so helpers may outlive this call: only `shared` (owned
  // jointly) is read after the caller returns.
  const auto drain = [shared, count, &body](std::size_t worker) {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared->mutex);
        if (i < shared->first_error_index) {
          shared->first_error_index = i;
          shared->first_error = std::current_exception();
        }
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        const std::lock_guard<std::mutex> lock(shared->mutex);
        shared->all_done = true;
        shared->finished.notify_all();
      }
    }
  };

  // The calling thread participates, so the loop completes even when every
  // worker is busy with other loops.
  const std::size_t helpers = std::min({workers_.size(), count - 1, max_helpers});
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t t = 0; t < helpers; ++t) jobs_.emplace_back([drain, t] { drain(t); });
  }
  for (std::size_t t = 0; t < helpers; ++t) wake_.notify_one();
  drain(helpers);  // the calling thread's slot

  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->finished.wait(lock, [&] { return shared->all_done; });
  // Take the exception out of `shared`: a late helper may hold the last
  // reference to it, and must not be the thread that frees the exception.
  if (shared->first_error) std::rethrow_exception(std::exchange(shared->first_error, nullptr));
}

std::size_t fan_out_width(std::size_t threads, std::size_t items, std::size_t placements) {
  if (threads <= 1 || items < 2 || placements < kFanOutCutoffPlacements) return 1;
  // The shared pool has default_thread_count() workers; the caller drains
  // one index itself, so more than items - 1 helpers would idle.
  return 1 + std::min({threads, ThreadPool::default_thread_count(), items - 1});
}

void fan_out(std::size_t threads, std::size_t items, std::size_t placements,
             const std::function<void(std::size_t worker, std::size_t index)>& body) {
  NETENT_EXPECTS(body != nullptr);
  const std::size_t width = fan_out_width(threads, items, placements);
  if (width == 1) {
    for (std::size_t i = 0; i < items; ++i) body(0, i);
    return;
  }
  ThreadPool::shared().parallel_for_with_worker(items, body, width - 1);
}

}  // namespace netent
