#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
