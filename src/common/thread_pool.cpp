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

ThreadPool::ThreadPool(std::size_t num_threads) : slots_(std::max<std::size_t>(1, num_threads)) {
  const std::size_t n = slots_.size();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(slots_[i]); });
  }
#ifdef __linux__
  // Where every core is its own cache domain (common on VMs), the scheduler
  // wakes a sleeping worker on the core it last ran on, which drifts to the
  // waker's: the woken helper then preempts the fanning-out caller instead
  // of running beside it, for a whole scheduler tick. A pinned worker always
  // wakes on its own core. Fan-outs read the cores only after the
  // constructor returns.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cores;
  for (int core = 0; core < CPU_SETSIZE; ++core) {
    if (CPU_ISSET(core, &allowed)) cores.push_back(core);
  }
  if (cores.size() < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    const int core = cores[i % cores.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    if (pthread_setaffinity_np(workers_[i].native_handle(), sizeof(one), &one) == 0) {
      slots_[i].core = core;
    }
  }
#endif
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    for (Slot& slot : slots_) slot.asleep = false;
  }
  for (Slot& slot : slots_) slot.wake.notify_one();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(Slot& slot) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (jobs_.empty()) {
        if (stop_) return;  // nothing left to run
        slot.asleep = true;
        slot.wake.wait(lock, [&slot] { return !slot.asleep; });
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

std::vector<std::size_t> ThreadPool::workers_to_wake(std::span<const int> sleeping_cores,
                                                     int caller_core, std::size_t helpers) {
  const auto elsewhere = [caller_core](int core) { return caller_core < 0 || core != caller_core; };
  const bool any_elsewhere = std::any_of(sleeping_cores.begin(), sleeping_cores.end(), elsewhere);
  std::vector<std::size_t> woken;
  for (std::size_t i = 0; i < sleeping_cores.size() && woken.size() < helpers; ++i) {
    if (!any_elsewhere || elsewhere(sleeping_cores[i])) woken.push_back(i);
  }
  return woken;
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
  // worker is busy with other loops. A job no woken worker takes is run by
  // the next worker that finishes its own, before that one sleeps.
  const std::size_t helpers = std::min({workers_.size(), count - 1, max_helpers});
  if (helpers > 0) {
#ifdef __linux__
    const int caller_core = sched_getcpu();
#else
    const int caller_core = -1;
#endif
    std::vector<Slot*> woken;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t t = 0; t < helpers; ++t) jobs_.emplace_back([drain, t] { drain(t); });
      std::vector<Slot*> sleeping;
      std::vector<int> cores;
      for (Slot& slot : slots_) {
        if (!slot.asleep) continue;
        sleeping.push_back(&slot);
        cores.push_back(slot.core);
      }
      for (const std::size_t i : workers_to_wake(cores, caller_core, helpers)) {
        sleeping[i]->asleep = false;
        woken.push_back(sleeping[i]);
      }
    }
    for (Slot* slot : woken) slot->wake.notify_one();
  }
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
