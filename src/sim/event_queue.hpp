// A deterministic pending-event set for discrete-event simulation.
//
// Events scheduled for the same instant execute in scheduling order
// (FIFO), which makes simulations reproducible regardless of heap
// internals. Callbacks live in a slot vector with a free list, and an
// event id names a slot plus its generation, so scheduling, firing and
// cancelling allocate nothing once the vectors have grown to the run's
// peak. Cancellation is O(1); a cancelled event's heap entry is skipped
// lazily when it reaches the head.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace flecc::sim {

/// Handle identifying a scheduled event; usable to cancel it. The high
/// 32 bits are the slot's generation (never 0), the low 32 the slot.
using EventId = std::uint64_t;

/// Sentinel returned when no event exists.
inline constexpr EventId kInvalidEventId = 0;

/// Min-heap of timed callbacks with deterministic same-time ordering.
///
/// Events may be marked *daemon*: recurring maintenance (trigger polls,
/// gossip ticks) that should not keep a run-to-quiescence loop alive.
/// The queue tracks how many live events are non-daemon so the
/// simulator can stop once only daemons remain.
///
/// An id stays safe to use after its event fired or was cancelled: the
/// slot's generation moves on when it is freed, so `cancel` and
/// `pending` on a stale id never touch the event that reuses the slot.
class EventQueue {
 public:
  /// Insert a callback to fire at absolute time `when`.
  /// Returns a handle that can later be passed to `cancel`.
  EventId push(Time when, std::function<void()> fn, bool daemon = false);

  /// Cancel a pending event. Returns true if the event was still pending
  /// (i.e., not yet popped and not already cancelled).
  bool cancel(EventId id);

  /// True if the given event is still pending.
  [[nodiscard]] bool pending(EventId id) const {
    const auto slot = static_cast<std::uint32_t>(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == static_cast<std::uint32_t>(id >> 32);
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// True if at least one live non-daemon event remains.
  [[nodiscard]] bool has_non_daemon() const { return non_daemon_live_ > 0; }

  /// Timestamp of the earliest live event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest live event.
  /// Precondition: !empty().
  struct Popped {
    Time when;
    EventId id;
    std::function<void()> fn;
    bool daemon = false;
  };
  Popped pop();

  /// Drop every pending event; none of their ids stays pending.
  void clear();

 private:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 1;  // never 0, so no id equals kInvalidEventId
    bool live = false;
    bool daemon = false;
  };
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;  // the slot's generation when pushed
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Returns a popped or cancelled event's slot to the free list and
  /// moves its generation on, which kills the slot's heap entry and id.
  void release(std::uint32_t slot);

  // Pops heap entries whose slot has moved to a later generation.
  void drop_dead_head() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t non_daemon_live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace flecc::sim
