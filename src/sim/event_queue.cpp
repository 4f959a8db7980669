#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2panon::sim {

EventId EventQueue::schedule(SimTime when, Callback fn,
                             obs::capacity::EventTypeId type) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.corr = obs::current_correlation();
  s.type = type;
  heap_.push_back(Key{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  if (++s.gen == 0) s.gen = 1;
  free_.push_back(slot);
  --live_;
}

void EventQueue::drop_stale_head() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  drop_stale_head();
  if (heap_.empty()) return kNeverTime;
  return heap_.front().time;
}

EventQueue::Ready EventQueue::pop() {
  std::optional<Ready> ready = pop_due(kNeverTime);
  if (!ready) throw std::logic_error("EventQueue::pop on empty queue");
  return std::move(*ready);
}

std::optional<EventQueue::Ready> EventQueue::pop_due(SimTime deadline) {
  drop_stale_head();
  if (heap_.empty() || heap_.front().time > deadline) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[top.slot];
  std::optional<Ready> ready(
      std::in_place, top.time, (static_cast<EventId>(top.gen) << 32) | top.slot,
      std::move(s.fn), s.corr, s.type);
  release(top.slot);
  return ready;
}

void EventQueue::clear() {
  // Free live slots (bumping their generations) rather than dropping the
  // table, so ids issued before the clear never match a later event.
  for (const Key& key : heap_) {
    if (!stale(key)) release(key.slot);
  }
  heap_.clear();
}

}  // namespace p2panon::sim
