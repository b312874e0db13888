#include "common/thread_pool.h"

#include <gtest/gtest.h>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace netent {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, ZeroRequestedThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_with_worker(kN, [&hits](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for_with_worker(0, [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRethrowsLowestThrowingIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for_with_worker(64, [](std::size_t, std::size_t i) {
      if (i == 17 || i == 40) throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 17");
  }
  // The pool is reusable after a throwing loop.
  std::atomic<int> count{0};
  pool.parallel_for_with_worker(10, [&count](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForBalancesUnevenWork) {
  // A few indices are much heavier than the rest; dynamic index claiming
  // must still complete every index (the assertion is completion + coverage,
  // not timing).
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_with_worker(kN, [&hits](std::size_t, std::size_t i) {
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ManyConcurrentParallelForsFromOwnPools) {
  // Several pools in flight at once.
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&total] {
      ThreadPool pool(3);
      pool.parallel_for_with_worker(200,
                                    [&total](std::size_t, std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, DestroyedRightAfterAFanOutWhoseHelpersNeverRanJoins) {
  // The caller claims both indices before a woken helper can start, so the
  // pool is destroyed with helper jobs still queued or just taken, and with
  // workers still starting: the destructor must wake every worker and join.
  std::size_t caller_only = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> off_caller{0};
    std::atomic<int> calls{0};
    {
      ThreadPool pool(3);
      const std::thread::id caller = std::this_thread::get_id();
      pool.parallel_for_with_worker(2, [&](std::size_t, std::size_t) {
        calls.fetch_add(1);
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
      });
    }
    EXPECT_EQ(calls.load(), 2);
    if (off_caller.load() == 0) ++caller_only;
  }
  EXPECT_GT(caller_only, 0u);  // the helpers-never-ran case did occur
  for (int round = 0; round < 50; ++round) ThreadPool pool(2);  // no fan-out at all
}

// --- the wake choice ----------------------------------------------------

TEST(ThreadPool, WakeChoiceNeverPicksTheCallersCoreWhileAnotherWorkerSleeps) {
  using Picks = std::vector<std::size_t>;
  const std::vector<int> four = {0, 1, 2, 3};
  EXPECT_EQ(ThreadPool::workers_to_wake(four, 0, 3), (Picks{1, 2, 3}));
  EXPECT_EQ(ThreadPool::workers_to_wake(four, 0, 4), (Picks{1, 2, 3}));
  EXPECT_EQ(ThreadPool::workers_to_wake(four, 2, 2), (Picks{0, 1}));
  EXPECT_EQ(ThreadPool::workers_to_wake(four, 2, 3), (Picks{0, 1, 3}));
  // Two workers share the caller's core (more workers than cores).
  EXPECT_EQ(ThreadPool::workers_to_wake(std::vector<int>{1, 0, 1, 2}, 1, 4), (Picks{1, 3}));
  // A worker whose core is unknown may run anywhere.
  EXPECT_EQ(ThreadPool::workers_to_wake(std::vector<int>{3, -1}, 3, 1), (Picks{1}));
  // Only workers on the caller's core sleep: they are all there is.
  EXPECT_EQ(ThreadPool::workers_to_wake(std::vector<int>{2}, 2, 1), (Picks{0}));
  EXPECT_EQ(ThreadPool::workers_to_wake(std::vector<int>{2, 2}, 2, 1), (Picks{0}));
}

TEST(ThreadPool, WakeChoicePicksAtMostHelpersWorkersInOrder) {
  // Every assignment of cores 0..2 to up to four sleeping workers, every
  // caller core and helper count.
  for (std::size_t sleepers = 0; sleepers <= 4; ++sleepers) {
    std::size_t assignments = 1;
    for (std::size_t i = 0; i < sleepers; ++i) assignments *= 3;
    for (std::size_t code = 0; code < assignments; ++code) {
      std::vector<int> cores;
      for (std::size_t i = 0, rest = code; i < sleepers; ++i, rest /= 3) {
        cores.push_back(static_cast<int>(rest % 3));
      }
      for (int caller = 0; caller < 3; ++caller) {
        const auto elsewhere =
            static_cast<std::size_t>(std::count_if(cores.begin(), cores.end(),
                                                   [caller](int core) { return core != caller; }));
        for (std::size_t helpers = 0; helpers <= 5; ++helpers) {
          const std::vector<std::size_t> picks =
              ThreadPool::workers_to_wake(cores, caller, helpers);
          const std::size_t eligible = elsewhere > 0 ? elsewhere : cores.size();
          EXPECT_EQ(picks.size(), std::min(helpers, eligible));
          EXPECT_TRUE(std::is_sorted(picks.begin(), picks.end()));
          EXPECT_EQ(std::adjacent_find(picks.begin(), picks.end()), picks.end());
          for (const std::size_t pick : picks) {
            ASSERT_LT(pick, cores.size());
            if (elsewhere > 0) {
              EXPECT_NE(cores[pick], caller);
            }
          }
        }
      }
    }
  }
}

TEST(ThreadPool, WakeChoiceKeepsPlainOrderWhenNoCoreIsKnown) {
  using Picks = std::vector<std::size_t>;
  const std::vector<int> known = {0, 1, 2, 3};
  EXPECT_EQ(ThreadPool::workers_to_wake(known, -1, 2), (Picks{0, 1}));
  const std::vector<int> unknown = {-1, -1, -1};
  EXPECT_EQ(ThreadPool::workers_to_wake(unknown, 1, 2), (Picks{0, 1}));
  EXPECT_EQ(ThreadPool::workers_to_wake(unknown, -1, 5), (Picks{0, 1, 2}));
  EXPECT_TRUE(ThreadPool::workers_to_wake({}, 0, 3).empty());
}

#ifdef __linux__
TEST(ThreadPool, FanOutWakesAWorkerOffTheCallersCore) {
  // Two workers, pinned to the first two cores of the affinity set; the
  // caller pins itself to the first, where worker 0 sleeps. A one-helper
  // fan-out whose items wait for each other must have its helper item run
  // on the other core: worker 0 could only run once the caller blocked.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed), 0);
  std::vector<int> cores;
  for (int core = 0; core < CPU_SETSIZE; ++core) {
    if (CPU_ISSET(core, &allowed)) cores.push_back(core);
  }
  if (cores.size() < 2) GTEST_SKIP() << "needs two cores to pin to";
  ThreadPool pool(2);
  struct RestoreAffinity {
    cpu_set_t set;
    ~RestoreAffinity() { (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set); }
  } restore{allowed};
  cpu_set_t first;
  CPU_ZERO(&first);
  CPU_SET(cores[0], &first);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(first), &first), 0);
  const std::thread::id caller = std::this_thread::get_id();
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both workers asleep
    std::mutex mutex;
    std::condition_variable started;
    int running = 0;
    int helper_core = -1;
    bool met = true;
    pool.parallel_for_with_worker(
        2,
        [&](std::size_t, std::size_t) {
          std::unique_lock<std::mutex> lock(mutex);
          if (std::this_thread::get_id() != caller) helper_core = sched_getcpu();
          ++running;
          started.notify_all();
          met = started.wait_for(lock, std::chrono::seconds(10), [&] { return running == 2; }) &&
                met;
        },
        1);
    ASSERT_TRUE(met) << "attempt " << attempt << ": the items never ran together";
    EXPECT_EQ(sched_getcpu(), cores[0]);
    EXPECT_NE(helper_core, cores[0]) << "attempt " << attempt;
  }
}
#endif

// --- fan_out: the shared pool with a serial cutoff ---------------------

TEST(FanOut, BelowCutoffRunsEntirelyOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kItems = 256;
  EXPECT_EQ(fan_out_width(8, kItems, kFanOutCutoffPlacements - 1), 1u);
  std::vector<std::size_t> order;
  bool off_caller = false;
  fan_out(8, kItems, kFanOutCutoffPlacements - 1, [&](std::size_t worker, std::size_t i) {
    off_caller = off_caller || std::this_thread::get_id() != caller || worker != 0;
    order.push_back(i);
  });
  EXPECT_FALSE(off_caller);
  ASSERT_EQ(order.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(order[i], i);  // ascending, serial
  // One thread or one item is serial whatever the work.
  EXPECT_EQ(fan_out_width(1, kItems, 1u << 30), 1u);
  EXPECT_EQ(fan_out_width(8, 1, 1u << 30), 1u);
}

TEST(FanOut, AboveCutoffUsesAtMostThreadsWorkersPlusTheCaller) {
  constexpr std::size_t kItems = 400;
  const std::size_t width = fan_out_width(2, kItems, kFanOutCutoffPlacements);
  EXPECT_LE(width, 3u);
  EXPECT_EQ(width, 1 + std::min<std::size_t>(2, ThreadPool::default_thread_count()));
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::set<std::size_t> slots;
  std::vector<std::atomic<int>> hits(kItems);
  fan_out(2, kItems, kFanOutCutoffPlacements, [&](std::size_t worker, std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));  // let the helpers join
    hits[i].fetch_add(1);
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
    slots.insert(worker);
  });
  for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_LE(ids.size(), width);
  EXPECT_LE(slots.size(), ids.size());
  EXPECT_LT(*slots.rbegin(), width);
}

TEST(FanOut, ConcurrentCallersOnTheSharedPoolMatchASerialLoop) {
  constexpr std::size_t kItems = 3000;
  const auto value = [](std::size_t i) { return static_cast<double>(i * i % 977) * 0.5; };
  std::vector<double> serial(kItems);
  for (std::size_t i = 0; i < kItems; ++i) serial[i] = value(i);
  std::vector<std::vector<double>> results(2, std::vector<double>(kItems, -1.0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < results.size(); ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        fan_out(4, kItems, kFanOutCutoffPlacements * 4,
                [&](std::size_t /*worker*/, std::size_t i) { results[c][i] = value(i); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(results[0], serial);
  EXPECT_EQ(results[1], serial);
}

TEST(FanOut, RethrowsTheLowestThrowingIndexInlineAndOnThePool) {
  for (const std::size_t placements : {std::size_t{1}, kFanOutCutoffPlacements}) {
    try {
      fan_out(4, 64, placements, [](std::size_t /*worker*/, std::size_t i) {
        if (i == 17 || i == 40 || i == 63) throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom at 17") << "placements " << placements;
    }
  }
}

TEST(FanOut, NestedFanOutFromAPoolTaskCompletes) {
  // The caller drains its own loop, so a fan-out issued from a pool worker
  // finishes even when every other worker is busy in the outer loop.
  std::atomic<int> total{0};
  fan_out(8, 16, kFanOutCutoffPlacements, [&](std::size_t /*worker*/, std::size_t /*i*/) {
    fan_out(8, 32, kFanOutCutoffPlacements,
            [&](std::size_t /*worker*/, std::size_t /*j*/) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16 * 32);
}

}  // namespace
}  // namespace netent
