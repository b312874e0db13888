#include "common/thread_pool.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <exception>
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
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
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
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  NETENT_EXPECTS(task != nullptr);
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  enqueue(std::move(packaged));
  return future;
}

void ThreadPool::enqueue(std::packaged_task<void()> task) {
  std::size_t target = 0;
  {
    const std::lock_guard<std::mutex> lock(submit_mutex_);
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    // Bump the epoch under the wake mutex so a worker that found every queue
    // empty and is about to sleep cannot miss this submission.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    ++epoch_;
  }
  wake_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::packaged_task<void()>& out) {
  {  // Own queue first: FIFO from the front.
    Queue& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of the other queues.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    Queue& victim = *queues_[(self + offset) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::packaged_task<void()> task;
    if (try_pop(self, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    // Tasks are only ever added by enqueue(), which is forbidden once stop_
    // is set, so a failed scan over all queues after stop_ is conclusive.
    if (stop_) return;
    const std::uint64_t seen = epoch_;
    lock.unlock();
    if (try_pop(self, task)) {  // a submission raced the first scan
      task();
      continue;
    }
    lock.lock();
    wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  NETENT_EXPECTS(body != nullptr);
  parallel_for_with_worker(begin, end,
                           [&body](std::size_t /*worker*/, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_with_worker(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t worker, std::size_t index)>& body,
    std::size_t max_helpers) {
  NETENT_EXPECTS(body != nullptr);
  if (begin >= end) return;
  const std::size_t count = end - begin;

  struct Shared {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable finished;
    bool all_done = false;  ///< guarded by mutex
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr first_error;  ///< guarded by mutex
  };
  auto shared = std::make_shared<Shared>();
  shared->next.store(begin, std::memory_order_relaxed);

  // A helper that starts after every index was claimed returns without
  // touching `body`, so helpers may outlive this call: only `shared` (owned
  // jointly) is read after the caller returns.
  const auto* body_ptr = &body;
  const auto drain = [shared, end, count, body_ptr](std::size_t worker) {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        (*body_ptr)(worker, i);
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
  // worker is busy with unrelated submissions.
  const std::size_t helpers = std::min({workers_.size(), count - 1, max_helpers});
  for (std::size_t t = 0; t < helpers; ++t) {
    enqueue(std::packaged_task<void()>([drain, t] { drain(t); }));
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
  ThreadPool::shared().parallel_for_with_worker(0, items, body, width - 1);
}

}  // namespace netent
