#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace flecc::sim {

namespace {

EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

EventId EventQueue::push(Time when, std::function<void()> fn, bool daemon) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  s.daemon = daemon;
  heap_.push(Entry{when, next_seq_++, slot, s.gen});
  ++live_;
  if (!daemon) ++non_daemon_live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  // The heap entry stays and is skipped lazily when it reaches the top
  // (drop_dead_head).
  if (!pending(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  // Destroyed on return, once the slot is consistent again.
  const std::function<void()> fn = std::move(slots_[slot].fn);
  release(slot);
  return true;
}

Time EventQueue::next_time() const {
  drop_dead_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().when;
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  const Entry top = heap_.top();
  heap_.pop();
  Slot& s = slots_[top.slot];
  Popped out{top.when, make_id(top.slot, top.gen), std::move(s.fn), s.daemon};
  release(top.slot);
  return out;
}

void EventQueue::clear() {
  while (!heap_.empty()) heap_.pop();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].live) cancel(make_id(slot, slots_[slot].gen));
  }
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  if (++s.gen == 0) s.gen = 1;
  --live_;
  if (!s.daemon) --non_daemon_live_;
  free_.push_back(slot);
}

void EventQueue::drop_dead_head() const {
  while (!heap_.empty() &&
         slots_[heap_.top().slot].gen != heap_.top().gen) {
    heap_.pop();
  }
}

}  // namespace flecc::sim
