#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/meter.h"
#include "enforce/ratestore.h"
#include "sim/drill_engine.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global new in this binary bumps a counter,
// so tests can assert that a steady-state region allocated exactly nothing.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// noinline: keeps GCC from inlining the malloc/free bodies into callers,
// which would trip -Wmismatched-new-delete against the opaque operator new.
#define NETENT_TEST_NOINLINE __attribute__((noinline))

NETENT_TEST_NOINLINE void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

NETENT_TEST_NOINLINE void* operator new[](std::size_t size) { return ::operator new(size); }

NETENT_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept { std::free(p); }
NETENT_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace netent::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, StableOrderAtEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(1.0, [&, i] { order.push_back(i); });
  }
  queue.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HorizonStopsExecution) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] { ++fired; });
  queue.schedule(5.0, [&] { ++fired; });
  queue.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue queue;
  std::vector<double> fire_times;
  // Self-rescheduling tick.
  std::function<void()> tick = [&] {
    fire_times.push_back(queue.now());
    if (queue.now() < 4.5) queue.schedule_in(1.0, tick);
  };
  queue.schedule(1.0, tick);
  queue.run_until(10.0);
  EXPECT_EQ(fire_times, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue queue;
  double seen = -1.0;
  queue.schedule(2.5, [&] { seen = queue.now(); });
  queue.run_until(2.5);
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run_until(5.0);
  EXPECT_THROW(queue.schedule(1.0, [] {}), ContractViolation);
}

TEST(EventQueue, NullActionRejected) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1.0, nullptr), ContractViolation);
}

TEST(EventQueue, EmptyAndPending) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule(1.0, [] {});
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(1.0);
  EXPECT_TRUE(queue.empty());
}

// --- run_until clock semantics (regression: the clock must always end at
// --- the horizon, so back-to-back windows observe consistent time) --------

TEST(EventQueue, ClockEndsAtHorizonWhenLaterEventsRemain) {
  EventQueue queue;
  double seen_in_second_window = -1.0;
  queue.schedule(1.0, [] {});
  queue.schedule(7.0, [&] { seen_in_second_window = queue.now(); });
  queue.run_until(4.0);
  // Last executed event was at 1.0, but the window ran to 4.0.
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
  queue.run_until(8.0);
  EXPECT_DOUBLE_EQ(seen_in_second_window, 7.0);
  EXPECT_DOUBLE_EQ(queue.now(), 8.0);
}

TEST(EventQueue, ScheduleInAfterPartialWindowUsesHorizonClock) {
  EventQueue queue;
  queue.schedule(1.0, [] {});
  queue.run_until(4.0);
  // schedule_in must be relative to the horizon (4.0), not the last event.
  std::vector<double> fired;
  queue.schedule_in(2.0, [&] { fired.push_back(queue.now()); });
  queue.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{6.0}));
}

TEST(EventQueue, EventExactlyAtHorizonRuns) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(3.0, [&] { ++fired; });
  queue.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, EmptyWindowStillAdvancesClock) {
  EventQueue queue;
  queue.run_until(5.0);
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  queue.run_until(5.0);  // zero-length window is legal
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
}

// --- strata ---------------------------------------------------------------

TEST(EventQueue, StrataOrderEventsAtEqualTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, kAgentStratum, [&] { order.push_back(3); });
  queue.schedule(1.0, kControlStratum, [&] { order.push_back(0); });
  queue.schedule(1.0, kWorldStratum, [&] { order.push_back(2); });
  queue.schedule(1.0, kDeliveryStratum, [&] { order.push_back(1); });
  queue.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, TimeBeatsStratum) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(2.0, kControlStratum, [&] { order.push_back(2); });
  queue.schedule(1.0, kAgentStratum, [&] { order.push_back(1); });
  queue.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EqualTimeEqualStratumIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    queue.schedule(1.0, kAgentStratum, [&, i] { order.push_back(i); });
  }
  queue.run_until(1.0);
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, LowerStratumScheduledDuringExecutionRunsFirstAtSameTime) {
  // A delivery (stratum 1) scheduled from inside a world event (stratum 2)
  // at the same timestamp must run before already-queued agent events
  // (stratum 3) — the zero-delay store-propagation case.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, kWorldStratum, [&] {
    order.push_back(2);
    queue.schedule(1.0, kDeliveryStratum, [&] { order.push_back(1); });
  });
  queue.schedule(1.0, kAgentStratum, [&] { order.push_back(3); });
  queue.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

// --- cancellation ---------------------------------------------------------

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  int fired = 0;
  const auto id = queue.schedule(1.0, [&] { ++fired; });
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_TRUE(queue.empty());
  queue.run_until(2.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(queue.cancelled_count(), 1u);
  EXPECT_EQ(queue.executed_count(), 0u);
}

TEST(EventQueue, CancelExecutedOrBogusHandleIsIgnored) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  queue.run_until(1.0);
  EXPECT_FALSE(queue.cancel(id));                       // already executed
  EXPECT_FALSE(queue.cancel(EventQueue::kInvalidEvent));  // never issued
  const auto id2 = queue.schedule(2.0, [] {});
  EXPECT_TRUE(queue.cancel(id2));
  EXPECT_FALSE(queue.cancel(id2));  // double-cancel
  EXPECT_EQ(queue.cancelled_count(), 1u);
}

TEST(EventQueue, CancellationStress) {
  // Interleave scheduling and cancelling from inside actions: every third
  // scheduled event cancels the next one. Survivors must fire in order.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventQueue::EventId> ids;
  constexpr int kEvents = 3000;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(queue.schedule(static_cast<double>(i % 7), [&fired, i] {
      fired.push_back(i);
    }));
  }
  std::uint64_t cancelled = 0;
  for (int i = 0; i + 1 < kEvents; i += 3) {
    if (queue.cancel(ids[i + 1])) ++cancelled;
  }
  EXPECT_EQ(queue.pending(), static_cast<std::size_t>(kEvents) - cancelled);
  queue.run_until(10.0);
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(kEvents) - cancelled);
  EXPECT_EQ(queue.executed_count(), static_cast<std::uint64_t>(kEvents) - cancelled);
  EXPECT_EQ(queue.cancelled_count(), cancelled);
  for (const int i : fired) EXPECT_NE((i % 3), 1) << "cancelled event fired";
  // Equal-time events preserved FIFO among survivors.
  for (std::size_t k = 1; k < fired.size(); ++k) {
    if (fired[k - 1] % 7 == fired[k] % 7) {
      EXPECT_LT(fired[k - 1], fired[k]);
    }
  }
}

TEST(EventQueue, StaleHandleOfReusedSlotCancelsNothing) {
  EventQueue queue;
  int first = 0;
  int second = 0;
  const auto stale = queue.schedule(1.0, [&] { ++first; });
  queue.run_until(1.0);
  // The executed event's slot is free again, so this event reuses it.
  const auto fresh = queue.schedule(2.0, [&] { ++second; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(queue.cancel(stale));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.cancelled_count(), 0u);
  queue.run_until(2.0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(EventQueue, DoubleCancelReturnsFalseEvenAfterSlotReuse) {
  EventQueue queue;
  int fired = 0;
  const auto id = queue.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(queue.cancel(id));
  // The cancelled event's slot is reused at once; its stale heap entry and
  // the new event share the slot until the run loop discards the former.
  const auto reused = queue.schedule(1.0, [&] { fired += 10; });
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(1.0);
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(queue.cancel(reused));
  EXPECT_EQ(queue.cancelled_count(), 1u);
  EXPECT_EQ(queue.executed_count(), 1u);
}

TEST(EventQueue, ForgedHandlesCancelNothing) {
  EventQueue queue;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(queue.schedule(1.0 + i, [] {}));
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const EventQueue::EventId forged = rng();
    if (std::find(ids.begin(), ids.end(), forged) != ids.end()) continue;
    EXPECT_FALSE(queue.cancel(forged));
  }
  // A live slot with another sequence, and a live sequence in another slot.
  EXPECT_FALSE(queue.cancel(ids[3] + (std::uint64_t{1} << 40)));
  EXPECT_FALSE(queue.cancel(ids[3] ^ 1));
  EXPECT_EQ(queue.pending(), 64u);
  EXPECT_EQ(queue.cancelled_count(), 0u);
}

TEST(EventQueue, PendingMatchesReferenceModelUnderRandomChurn) {
  // A std::set of live handles is the reference: schedule inserts, a
  // successful cancel erases, and the run loop erases what it executes.
  EventQueue queue;
  std::set<EventQueue::EventId> live;
  std::vector<EventQueue::EventId> handles;
  std::vector<std::pair<double, EventQueue::EventId>> executed;
  Rng rng(20221017);
  for (int op = 0; op < 10000; ++op) {
    const double u = rng.uniform();
    if (u < 0.5) {
      const double when = queue.now() + std::floor(rng.uniform(0.0, 20.0));
      auto handle = std::make_shared<EventQueue::EventId>(EventQueue::kInvalidEvent);
      *handle = queue.schedule(when, static_cast<EventStratum>(rng.uniform_int(4)),
                               [&, handle] {
                                 EXPECT_EQ(live.erase(*handle), 1u);
                                 executed.emplace_back(queue.now(), *handle);
                               });
      EXPECT_TRUE(live.insert(*handle).second) << "handle returned twice";
      handles.push_back(*handle);
    } else if (u < 0.85 && !handles.empty()) {
      const EventQueue::EventId id = handles[rng.uniform_int(handles.size())];
      EXPECT_EQ(queue.cancel(id), live.erase(id) == 1);
    } else {
      queue.run_until(queue.now() + std::floor(rng.uniform(0.0, 4.0)));
    }
    ASSERT_EQ(queue.pending(), live.size());
    ASSERT_EQ(queue.empty(), live.empty());
  }
  queue.run_until(queue.now() + 100.0);
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.scheduled_count(),
            queue.executed_count() + queue.cancelled_count());
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(EventQueue, HandlesStayUniqueOverAMillionSchedules) {
  // Few events pending at once, so slots are reused over and over; the
  // sequence in each handle keeps them apart.
  EventQueue queue;
  std::vector<EventQueue::EventId> handles;
  constexpr int kSchedules = 1 << 20;
  handles.reserve(kSchedules);
  for (int i = 0; i < kSchedules; ++i) {
    handles.push_back(queue.schedule(queue.now() + static_cast<double>(i % 3), [] {}));
    if (i % 4 == 3) queue.run_until(queue.now() + 1.0);
  }
  std::sort(handles.begin(), handles.end());
  EXPECT_EQ(std::adjacent_find(handles.begin(), handles.end()), handles.end());
  EXPECT_EQ(std::count(handles.begin(), handles.end(), EventQueue::kInvalidEvent), 0);
}

TEST(EventQueue, SteadyStateCaptureThisSchedulingAllocatesNothing) {
  // Self-rescheduling capture-`this` actions fit std::function's small
  // buffer; once the heap and slot vectors have grown, schedule + run
  // touches no allocator.
  struct Ticker {
    EventQueue& queue;
    double period;
    std::uint64_t fires = 0;
    void fire() {
      ++fires;
      queue.schedule_in(period, kAgentStratum, [this] { fire(); });
    }
  };
  EventQueue queue;
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < 50; ++i) {
    tickers.push_back(std::make_unique<Ticker>(Ticker{queue, 1.0 + 0.1 * i}));
    queue.schedule(0.01 * i, kAgentStratum, [t = tickers.back().get()] { t->fire(); });
  }
  PeriodicTimer world(queue, 0.5, kWorldStratum, [] {});
  world.start_at(0.0);
  queue.run_until(20.0);  // warm-up grows the heap and the slots

  const std::uint64_t before = g_alloc_count.load();
  queue.run_until(200.0);
  world.stop();
  world.start_at(200.25);  // cancel + re-arm reuse a freed slot
  queue.run_until(400.0);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state scheduling touched the heap";
  EXPECT_GT(tickers[0]->fires, 390u);
}

// --- DelayLine --------------------------------------------------------------

TEST(DelayLine, DeliversEachMessageAsItsOwnEventInSendOrder) {
  EventQueue queue;
  std::vector<std::pair<double, int>> arrived;
  DelayLine<int> line(queue, 2.5, kDeliveryStratum,
                      [&](const int& m) { arrived.emplace_back(queue.now(), m); });
  for (int i = 0; i < 100; ++i) {  // grows the ring several times
    queue.run_until(0.25 * i);
    line.send(i);
    EXPECT_EQ(queue.scheduled_count(), static_cast<std::uint64_t>(i + 1));
  }
  queue.run_until(100.0);
  ASSERT_EQ(arrived.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arrived[i], std::make_pair(0.25 * i + 2.5, i));
  }
}

TEST(DelayLine, OrderMatchesPerMessageCaptureUnderRandomInterleaving) {
  // The same random mix of sends, other events and receiver-triggered sends,
  // once with the message captured in each event and once through a
  // DelayLine: the execution logs must be identical, event counts included.
  const auto run = [](bool through_line) {
    EventQueue queue;
    std::vector<std::pair<double, int>> log;
    std::unique_ptr<DelayLine<int>> line;
    std::function<void(int)> send;
    const auto receive = [&](int m) {
      log.emplace_back(queue.now(), m);
      if (m % 5 == 0 && m < 100000) send(m + 100000);  // a delivery that publishes again
    };
    if (through_line) {
      line = std::make_unique<DelayLine<int>>(queue, 1.5, kDeliveryStratum,
                                              [&](const int& m) { receive(m); });
      send = [&](int m) { line->send(m); };
    } else {
      send = [&](int m) {
        queue.schedule_in(1.5, kDeliveryStratum, [&receive, m] { receive(m); });
      };
    }
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
      const double when = std::floor(rng.uniform(0.0, 400.0)) * 0.5;
      const auto stratum = static_cast<EventStratum>(rng.uniform_int(4));
      queue.schedule(when, stratum, [&, i] {
        log.emplace_back(queue.now(), -i - 1);
        send(i);
      });
    }
    queue.run_until(1000.0);
    return std::make_pair(log, queue.scheduled_count());
  };
  const auto direct = run(false);
  const auto channel = run(true);
  EXPECT_EQ(direct.first, channel.first);
  EXPECT_EQ(direct.second, channel.second);
  EXPECT_GT(direct.first.size(), 6000u);
}

TEST(DelayLine, InvalidConstructionRejected) {
  EventQueue queue;
  const auto sink = [](const int&) {};
  EXPECT_THROW(DelayLine<int>(queue, -1.0, kDeliveryStratum, sink), ContractViolation);
  EXPECT_THROW(DelayLine<int>(queue, std::nan(""), kDeliveryStratum, sink), ContractViolation);
  EXPECT_THROW(DelayLine<int>(queue, 1.0, kDeliveryStratum, nullptr), ContractViolation);
}

TEST(DelayLine, DrillPublishToDeliveryPathAllocatesNothing) {
  // The drill's store path with real agents: publish timers push through the
  // PropagatingStore's DelayLine, deliveries land in the EventRateStore, and
  // metering timers read it and program the classifiers.
  constexpr std::size_t kHosts = 16;
  EventQueue queue;
  enforce::EventRateStore inner(enforce::EventRateStore::AggregateMode::kFastDelta, 10.0);
  PropagatingStore store(queue, inner);
  const enforce::EntitlementQuery query = [](NpgId, QosClass, double) {
    return enforce::EntitlementAnswer{true, Gbps(100)};
  };
  std::vector<enforce::BpfClassifier> classifiers(
      kHosts, enforce::BpfClassifier(enforce::Marker(enforce::MarkingMode::host_based)));
  std::vector<std::unique_ptr<enforce::HostAgent>> agents;
  std::vector<std::unique_ptr<PeriodicTimer>> timers;
  Rng rng(5);
  for (std::size_t h = 0; h < kHosts; ++h) {
    agents.push_back(std::make_unique<enforce::HostAgent>(
        HostId(static_cast<std::uint32_t>(h)), NpgId(0), QosClass::c2_low,
        enforce::AgentConfig{}, std::make_unique<enforce::StatefulMeter>(2.0, 0.4), query,
        store, classifiers[h]));
    enforce::HostAgent* agent = agents.back().get();
    agent->observe_local(Gbps(10.0 + static_cast<double>(h)), Gbps(8.0));
    timers.push_back(std::make_unique<PeriodicTimer>(
        queue, 5.0, kAgentStratum, [agent, &queue] { agent->publish_now(queue.now()); }));
    timers.back()->start_at(rng.uniform(0.0, 5.0));
    timers.push_back(std::make_unique<PeriodicTimer>(
        queue, 10.0, kAgentStratum, [agent, &queue] { agent->run_metering(queue.now()); }));
    timers.back()->start_at(rng.uniform(0.0, 5.0));
  }
  queue.run_until(100.0);  // warm-up: store entries, ring, heap and slots grow

  const std::uint64_t executed_before = queue.executed_count();
  const std::uint64_t before = g_alloc_count.load();
  queue.run_until(2000.0);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state publish -> delivery touched the heap";
  EXPECT_GT(queue.executed_count() - executed_before, 3 * kHosts * 190);
  const enforce::ServiceRates rates = store.aggregate(NpgId(0), QosClass::c2_low, queue.now());
  EXPECT_NEAR(rates.total.value(), 10.0 * kHosts + 120.0, 1e-9);
  for (auto& timer : timers) timer->stop();
}

// --- PeriodicTimer --------------------------------------------------------

TEST(PeriodicTimer, FiresEveryPeriodFromBase) {
  EventQueue queue;
  std::vector<double> fire_times;
  PeriodicTimer timer(queue, 5.0, kWorldStratum, [&] { fire_times.push_back(queue.now()); });
  timer.start_at(0.0);
  queue.run_until(20.0);
  EXPECT_EQ(fire_times, (std::vector<double>{0.0, 5.0, 10.0, 15.0, 20.0}));
  EXPECT_EQ(timer.fire_count(), 5u);
  EXPECT_TRUE(timer.running());
}

TEST(PeriodicTimer, StopHaltsAndRestartRebases) {
  EventQueue queue;
  std::vector<double> fire_times;
  PeriodicTimer timer(queue, 10.0, kAgentStratum, [&] { fire_times.push_back(queue.now()); });
  timer.start_at(0.0);
  queue.run_until(25.0);  // fires at 0, 10, 20
  timer.stop();
  EXPECT_FALSE(timer.running());
  queue.run_until(55.0);  // nothing fires while stopped
  timer.start_at(57.0);   // crash/restart idiom: re-based, phase reset
  queue.run_until(80.0);  // fires at 57, 67, 77
  EXPECT_EQ(fire_times, (std::vector<double>{0.0, 10.0, 20.0, 57.0, 67.0, 77.0}));
}

TEST(PeriodicTimer, ActionMayStopItsOwnTimer) {
  EventQueue queue;
  int fires = 0;
  PeriodicTimer timer(queue, 1.0, kWorldStratum, [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start_at(1.0);
  queue.run_until(100.0);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
  EXPECT_TRUE(queue.empty());
}

TEST(PeriodicTimer, ActionMayRestartItsOwnTimer) {
  EventQueue queue;
  std::vector<double> fire_times;
  PeriodicTimer timer(queue, 10.0, kWorldStratum, [&] {
    fire_times.push_back(queue.now());
    if (fire_times.size() == 2) timer.start_at(queue.now() + 3.0);
  });
  timer.start_at(0.0);
  queue.run_until(30.0);  // 0, 10, then re-based: 13, 23
  EXPECT_EQ(fire_times, (std::vector<double>{0.0, 10.0, 13.0, 23.0}));
}

TEST(PeriodicTimer, NoDriftOverManyPeriods) {
  // base + n * period, not accumulation: after 10^5 periods of 5 s the fire
  // time is still bit-exact.
  EventQueue queue;
  double last = -1.0;
  PeriodicTimer timer(queue, 5.0, kWorldStratum, [&] { last = queue.now(); });
  timer.start_at(0.0);
  queue.run_until(5.0 * 100000.0);
  EXPECT_EQ(last, 500000.0);
  EXPECT_EQ(timer.fire_count(), 100001u);
}

TEST(PeriodicTimer, InvalidConstructionRejected) {
  EventQueue queue;
  EXPECT_THROW(PeriodicTimer(queue, 0.0, kWorldStratum, [] {}), ContractViolation);
  EXPECT_THROW(PeriodicTimer(queue, 1.0, kWorldStratum, nullptr), ContractViolation);
}

}  // namespace
}  // namespace netent::sim
