#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace netent::sim {

namespace {

/// Queue-level tallies shared by every EventQueue in the process (there is
/// one live engine per simulation run; the counts are deterministic for a
/// deterministic schedule, so the drill golden tests may compare them).
struct QueueMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& scheduled = reg.counter("sim.events.scheduled");
  obs::Counter& executed = reg.counter("sim.events.executed");
  obs::Counter& cancelled = reg.counter("sim.events.cancelled");
};

QueueMetrics& metrics() {
  static QueueMetrics instance;
  return instance;
}

}  // namespace

EventQueue::EventId EventQueue::schedule(double when, EventStratum stratum, Action action) {
  NETENT_EXPECTS(when >= now_);
  NETENT_EXPECTS(action != nullptr);
  NETENT_EXPECTS(next_sequence_ < kSequenceLimit);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    NETENT_EXPECTS(slots_.size() < kSlotMask);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  slots_[slot].action = std::move(action);
  slots_[slot].sequence = sequence;
  events_.push(Entry{when, (std::uint64_t{stratum} << kStratumShift) | sequence, slot});
  ++pending_;
  metrics().scheduled.add();
  return (sequence << kSlotBits) | slot;
}

EventQueue::Action EventQueue::release(std::uint32_t slot) {
  Slot& state = slots_[slot];
  Action action = std::move(state.action);
  state.action = nullptr;
  state.sequence = kFreeSlot;
  free_slots_.push_back(slot);
  --pending_;
  return action;
}

bool EventQueue::cancel(EventId id) {
  // Only a still-pending event can be cancelled: its slot must still hold
  // its sequence. Executed / already-cancelled / never-returned handles find
  // a free slot, another event's slot, or no slot at all.
  const std::uint64_t slot = id & kSlotMask;
  if (slot >= slots_.size() || slots_[slot].sequence != id >> kSlotBits) return false;
  // The action is destroyed on return, after the queue is consistent again.
  const Action discarded = release(static_cast<std::uint32_t>(slot));
  ++cancelled_total_;
  metrics().cancelled.add();
  return true;
}

void EventQueue::run_until(double horizon) {
  NETENT_EXPECTS(horizon >= now_);
  while (!events_.empty() && events_.top().when <= horizon) {
    const Entry entry = events_.top();
    events_.pop();
    if (slots_[entry.slot].sequence != (entry.order & kSequenceMask)) continue;  // cancelled
    // Out of the slot before running: the action may schedule events that
    // reuse the slot or grow the slot vector.
    const Action action = release(entry.slot);
    now_ = entry.when;
    ++executed_;
    metrics().executed.add();
    action();
  }
  // The clock always lands on the horizon, even when later events remain:
  // back-to-back windows must observe consistent time.
  now_ = horizon;
}

PeriodicTimer::PeriodicTimer(EventQueue& queue, double period_seconds, EventStratum stratum,
                             EventQueue::Action action)
    : queue_(queue), period_(period_seconds), stratum_(stratum), action_(std::move(action)) {
  NETENT_EXPECTS(period_ > 0.0);
  NETENT_EXPECTS(action_ != nullptr);
}

void PeriodicTimer::start_at(double first_fire_seconds) {
  stop();
  active_ = true;
  base_ = first_fire_seconds;
  ticks_ = 0;
  arm();
}

void PeriodicTimer::stop() {
  active_ = false;
  if (pending_ == EventQueue::kInvalidEvent) return;
  queue_.cancel(pending_);
  pending_ = EventQueue::kInvalidEvent;
}

void PeriodicTimer::arm() {
  // Multiplication, not accumulation: base + n * period keeps timestamps
  // bit-exact (5.0-second periods never drift), matching the lockstep
  // driver's `step * tick_seconds` times.
  pending_ = queue_.schedule(base_ + static_cast<double>(ticks_) * period_, stratum_,
                             [this] { fire(); });
}

void PeriodicTimer::fire() {
  pending_ = EventQueue::kInvalidEvent;
  ++ticks_;
  ++fires_;
  action_();
  // The action may have stopped the timer (active_ now false) or restarted
  // it (pending_ now set); re-arm only when it left this occurrence alone.
  if (active_ && pending_ == EventQueue::kInvalidEvent) arm();
}

}  // namespace netent::sim
