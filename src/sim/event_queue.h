// Discrete-event engine driving the enforcement simulations: a time-ordered
// queue of callbacks with a monotonic clock.
//
// Ordering contract. Events are executed by ascending (time, stratum,
// scheduling sequence). The stratum is a small priority class that fixes the
// execution order of *different kinds* of events that collide on the same
// timestamp — the drill engine needs contract/fault changes to land before
// the world sweep, store deliveries to land before the agent reads that
// depend on them, and the world sweep to land before the agents that consume
// its rates. Within one (time, stratum) cell, events fire in scheduling
// order (stable FIFO), which keeps runs deterministic.
//
// Cancellation is lazy: cancel() frees the event's slot at once and the run
// loop discards the heap entry unexecuted when it reaches the head of the
// queue. A handle names its slot and its event's scheduling sequence, so a
// stale handle (already executed or cancelled, even after the slot was
// reused) or a forged one is safely ignored.
//
// Storage. The heap orders small (time, stratum·sequence, slot) entries; the
// actions wait in a slot vector whose freed slots a free list reuses, so the
// slots grow only with the number of events pending at once, never with the
// number scheduled. A capture-`this` action fits std::function's small
// buffer, so scheduling one allocates nothing once the vectors have grown.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace netent::sim {

/// Execution-priority class for events sharing a timestamp (lower runs
/// first). The named constants are the drill engine's taxonomy; plain
/// schedule() calls land in kWorld, preserving the original FIFO behaviour.
using EventStratum = std::uint8_t;
inline constexpr EventStratum kControlStratum = 0;   ///< contract cuts, ACL stages, faults
inline constexpr EventStratum kDeliveryStratum = 1;  ///< rate-store propagation arrivals
inline constexpr EventStratum kWorldStratum = 2;     ///< traffic/world sweeps (default)
inline constexpr EventStratum kAgentStratum = 3;     ///< host-agent timers (publish/meter)

class EventQueue {
 public:
  using Action = std::function<void()>;
  /// Handle for cancellation: the event's slot in the low bits and its
  /// scheduling sequence above them, so handles are unique per queue for its
  /// lifetime. kInvalidEvent is never returned by schedule().
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = std::numeric_limits<EventId>::max();

  /// Schedules `action` at absolute time `when` (>= now) in `stratum`.
  EventId schedule(double when, Action action) {
    return schedule(when, kWorldStratum, std::move(action));
  }
  EventId schedule(double when, EventStratum stratum, Action action);

  /// Schedules `action` `delay` seconds from now.
  EventId schedule_in(double delay, Action action) {
    return schedule(now_ + delay, kWorldStratum, std::move(action));
  }
  EventId schedule_in(double delay, EventStratum stratum, Action action) {
    return schedule(now_ + delay, stratum, std::move(action));
  }

  /// Cancels a pending event; returns true if it was still pending (it will
  /// never execute), false if it already executed, was already cancelled, or
  /// the handle is invalid.
  bool cancel(EventId id);

  /// Runs events up to and including `horizon`. The clock always ends at
  /// exactly `horizon` — even when later events remain pending — so
  /// back-to-back run_until(h1); run_until(h2) windows observe a consistent
  /// clock. (If an action throws, the clock stays at that event's time.)
  void run_until(double horizon);

  [[nodiscard]] double now() const { return now_; }
  /// True when no live (un-cancelled) events are pending.
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  /// Number of live (un-cancelled) pending events.
  [[nodiscard]] std::size_t pending() const { return pending_; }
  /// Events executed (cancelled events are discarded, not executed).
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t scheduled_count() const { return next_sequence_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_total_; }

 private:
  // Handle layout: slot in the low kSlotBits bits, sequence above. A queue
  // holds at most 2^24 - 1 events pending at once and schedules at most 2^40
  // in its lifetime; schedule() checks both, so the all-ones slot of
  // kInvalidEvent never names a real one.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSequenceLimit = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr unsigned kStratumShift = 56;  // order = stratum << 56 | sequence
  static constexpr std::uint64_t kSequenceMask = (std::uint64_t{1} << kStratumShift) - 1;
  static constexpr std::uint64_t kFreeSlot = std::numeric_limits<std::uint64_t>::max();

  struct Entry {
    double when;
    std::uint64_t order;  // stratum, then sequence: stable FIFO within (when, stratum)
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  /// A pending event's action. `sequence` is the sequence of the event that
  /// holds the slot, or kFreeSlot: an entry whose sequence differs was
  /// cancelled.
  struct Slot {
    Action action;
    std::uint64_t sequence = kFreeSlot;
  };

  /// Takes the action out of a live slot and returns the slot to the free list.
  Action release(std::uint32_t slot);

  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> events_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Self-rescheduling fixed-period event, the idiom behind agent metering /
/// publish loops and the drill's world sweep. Fire times are computed as
/// base + n * period (not by accumulation), so periods like 5.0 s produce
/// bit-exact tick timestamps with no floating-point drift.
///
/// stop() cancels the pending occurrence — this is what agent-crash faults
/// use — and start_at() (re-)arms the timer, so a crash/restart pair is
/// stop(); start_at(t). The timer must outlive any queue run in which it has
/// a pending event.
class PeriodicTimer {
 public:
  /// `action` runs once per period; it may call stop() on this timer.
  PeriodicTimer(EventQueue& queue, double period_seconds, EventStratum stratum,
                EventQueue::Action action);

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer to first fire at absolute time `first_fire_seconds`
  /// (>= queue.now()), then every period after it. Restarting a running
  /// timer cancels the pending occurrence and re-bases the schedule.
  void start_at(double first_fire_seconds);

  /// Cancels the pending occurrence; the timer can be start_at() again.
  void stop();

  [[nodiscard]] bool running() const { return active_; }
  [[nodiscard]] double period() const { return period_; }
  /// Times the action has run since construction.
  [[nodiscard]] std::uint64_t fire_count() const { return fires_; }

 private:
  void arm();
  void fire();

  EventQueue& queue_;
  double period_;
  EventStratum stratum_;
  EventQueue::Action action_;
  bool active_ = false;        // between start_at() and stop()
  double base_ = 0.0;          // schedule origin of the current arming
  std::uint64_t ticks_ = 0;    // occurrences since base_ (next fires at base_ + ticks_ * period_)
  std::uint64_t fires_ = 0;
  EventQueue::EventId pending_ = EventQueue::kInvalidEvent;
};

}  // namespace netent::sim
