// Pending-event set for the discrete-event simulator.
//
// Callbacks live in a slot table; a binary min-heap orders 24-byte keys
// {time, seq, slot, gen}. The sequence number breaks ties so same-time
// events fire in scheduling order, which keeps runs deterministic. Each
// slot carries a generation that is bumped whenever the slot is freed, so
// an EventId — the pair (gen, slot) — names one scheduling of one slot.
// Cancel frees the slot at once (the callback is destroyed there and then)
// and leaves the heap key behind as a tombstone whose generation no longer
// matches; it is dropped when it surfaces, so cancel is O(1) and pop stays
// O(log n) amortized. A firing callback is moved out of its slot exactly
// once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/trace.hpp"

namespace p2panon::sim {

/// Opaque handle to one scheduled event: (generation << 32) | slot.
/// Handles are only compared for equality; nothing orders them.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;  // generations start at 1

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `when`. Returns a handle usable with
  /// cancel(). Events at equal times run in insertion order. The thread's
  /// current correlation id is captured into the entry so causal chains
  /// survive the trip through the queue (see obs/trace.hpp). `type` tags
  /// the event for the capacity loop profiler (obs/capacity): subsystems
  /// intern a type id once and pass it on every schedule; untyped events
  /// land in the profiler's catch-all bucket.
  EventId schedule(SimTime when, Callback fn,
                   obs::capacity::EventTypeId type =
                       obs::capacity::kUntypedEvent);

  /// Cancels a pending event and destroys its callback. Returns true if
  /// the event was still pending; cancelling an already-fired or
  /// already-cancelled id is a no-op, also after its slot was reused.
  bool cancel(EventId id) {
    if (!pending(id)) return false;
    release(slot_of(id));
    return true;
  }

  /// True if the id refers to an event that has neither fired nor been
  /// cancelled.
  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].gen == gen_of(id);
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; kNeverTime when empty.
  SimTime next_time();

  /// Removes and returns the earliest pending event.
  /// Precondition: !empty().
  struct Ready {
    SimTime time;
    EventId id;
    Callback fn;
    obs::CorrelationId corr;
    obs::capacity::EventTypeId type;
  };
  Ready pop();

  /// The simulator loop's single head check: drops stale keys once, then
  /// pops the earliest pending event if its time is <= `deadline`;
  /// nullopt when the queue is empty or its head lies beyond `deadline`.
  std::optional<Ready> pop_due(SimTime deadline);

  /// Drops all pending events. Ids issued before stay invalid.
  void clear();

  /// Total events ever scheduled (diagnostics); cancels do not change it.
  std::uint64_t scheduled_total() const { return next_seq_ - 1; }

  /// Heap footprint (heap keys incl. tombstones, the slot table and its
  /// free list) for the capacity byte census.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(heap_.capacity()) * sizeof(Key) +
           static_cast<std::uint64_t>(slots_.capacity()) * sizeof(Slot) +
           static_cast<std::uint64_t>(free_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    obs::CorrelationId corr = 0;
    obs::capacity::EventTypeId type = obs::capacity::kUntypedEvent;
    std::uint32_t gen = 1;  // generation of the pending (or next) event
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  bool stale(const Key& key) const { return slots_[key.slot].gen != key.gen; }

  /// Destroys the slot's callback, bumps its generation (skipping 0, so no
  /// handle equals kInvalidEventId) and returns it to the free list.
  void release(std::uint32_t slot);
  void drop_stale_head();

  std::vector<Key> heap_;  // std::push_heap / pop_heap order under Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace p2panon::sim
