// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace p2panon::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(30, [&] { fired.push_back(3); });
  queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });
  while (!queue.empty()) {
    auto ready = queue.pop();
    ready.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.pending(id));
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.pending(id));
  EXPECT_FALSE(queue.cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNeverTime);
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue queue;
  const EventId id = queue.schedule(1, [] {});
  queue.pop().fn();
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  const EventId a = queue.schedule(1, [] {});
  queue.schedule(2, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, StaleIdAfterSlotReuseDoesNotCancel) {
  EventQueue queue;
  const EventId cancelled = queue.schedule(1, [] {});
  ASSERT_TRUE(queue.cancel(cancelled));
  const EventId reused = queue.schedule(2, [] {});  // takes the freed slot
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_TRUE(queue.pending(reused));

  // The same after a fire: the fired id must not reach the slot's next
  // event.
  queue.pop().fn();
  const EventId next = queue.schedule(3, [] {});
  EXPECT_FALSE(queue.cancel(reused));
  EXPECT_TRUE(queue.pending(next));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.next_time(), 3);
}

TEST(EventQueueTest, PendingFalseAfterFireAndAfterCancel) {
  EventQueue queue;
  const EventId fired = queue.schedule(1, [] {});
  const EventId cancelled = queue.schedule(2, [] {});
  EXPECT_TRUE(queue.pending(fired));
  EXPECT_TRUE(queue.pending(cancelled));
  const auto ready = queue.pop();
  EXPECT_EQ(ready.id, fired);
  EXPECT_FALSE(queue.pending(fired));
  EXPECT_TRUE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.pending(cancelled));
  EXPECT_FALSE(queue.pending(kInvalidEventId));
}

TEST(EventQueueTest, CancelDestroysCallbackAtOnce) {
  EventQueue queue;
  auto token = std::make_shared<int>(0);
  const EventId id = queue.schedule(5, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(queue.cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // not held until the tombstone surfaces
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(queue.schedule(i, [] {}));
  queue.cancel(ids[3]);
  queue.clear();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNeverTime);
  for (EventId id : ids) EXPECT_FALSE(queue.pending(id));
  // Ids from before the clear stay dead once their slots are reused.
  bool ran = false;
  const EventId fresh = queue.schedule(1, [&] { ran = true; });
  for (EventId id : ids) EXPECT_FALSE(queue.cancel(id));
  EXPECT_TRUE(queue.pending(fresh));
  queue.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, ScheduledTotalUnchangedByCancels) {
  EventQueue queue;
  const EventId a = queue.schedule(1, [] {});
  const EventId b = queue.schedule(2, [] {});
  queue.schedule(3, [] {});
  EXPECT_EQ(queue.scheduled_total(), 3u);
  queue.cancel(a);
  queue.cancel(b);
  EXPECT_EQ(queue.scheduled_total(), 3u);
  queue.pop();
  EXPECT_EQ(queue.scheduled_total(), 3u);
}

TEST(EventQueueTest, SameTimeInsertionOrderAcrossSlotReuse) {
  // Freed slots come back in LIFO order, not insertion order; firing must
  // still follow insertion order among equal times.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(queue.schedule(7, [&fired, i] { fired.push_back(i); }));
  }
  queue.cancel(ids[1]);
  queue.cancel(ids[4]);
  queue.cancel(ids[2]);
  for (int i = 6; i < 10; ++i) {
    queue.schedule(7, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 3, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, PopDueSkipsTombstonesAndHonorsDeadline) {
  EventQueue queue;
  std::vector<int> fired;
  const EventId dead = queue.schedule(1, [&] { fired.push_back(-1); });
  queue.schedule(2, [&] { fired.push_back(2); });
  queue.schedule(5, [&] { fired.push_back(5); });
  queue.cancel(dead);
  // The tombstone at t=1 is dropped, the live head at t=2 is due.
  auto ready = queue.pop_due(4);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->time, 2);
  ready->fn();
  // The next head lies beyond the deadline: nothing is popped.
  EXPECT_FALSE(queue.pop_due(4).has_value());
  EXPECT_EQ(queue.size(), 1u);
  ready = queue.pop_due(5);
  ASSERT_TRUE(ready.has_value());
  ready->fn();
  EXPECT_FALSE(queue.pop_due(kNeverTime).has_value());
  EXPECT_EQ(fired, (std::vector<int>{2, 5}));
}

TEST(SimulatorTest, TimeAdvancesWithEvents) {
  Simulator simulator;
  SimTime seen = -1;
  simulator.schedule_at(100, [&] { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_at(50, [&] { ++count; });
  simulator.schedule_at(150, [&] { ++count; });
  simulator.run_until(100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(simulator.now(), 100);  // clock lands on the deadline
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, ScheduleInPastThrows) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule_at(5, [] {}), std::invalid_argument);
  // Negative delays clamp instead.
  bool ran = false;
  simulator.schedule_after(-100, [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.schedule_at(i, [&] {
      ++count;
      if (count == 3) simulator.stop();
    });
  }
  simulator.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.pending_events(), 7u);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator simulator;
  std::vector<SimTime> times;
  std::function<void()> chain = [&] {
    times.push_back(simulator.now());
    if (times.size() < 5) simulator.schedule_after(10, chain);
  };
  simulator.schedule_at(0, chain);
  simulator.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(SimulatorTest, RunStepsBounded) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 5; ++i) simulator.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(simulator.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, ResetClearsEverything) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run();
  simulator.schedule_at(20, [] {});
  simulator.reset();
  EXPECT_EQ(simulator.now(), 0);
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.executed_events(), 0u);
}

TEST(PeriodicTaskTest, FiresRepeatedly) {
  Simulator simulator;
  int count = 0;
  PeriodicTask task(simulator, 10, [&] { ++count; });
  task.start();
  simulator.run_until(55);
  EXPECT_EQ(count, 5);  // t = 10, 20, 30, 40, 50
}

TEST(PeriodicTaskTest, CancelStopsFiring) {
  Simulator simulator;
  int count = 0;
  PeriodicTask task(simulator, 10, [&] {
    ++count;
    if (count == 2) task.cancel();
  });
  task.start();
  simulator.run_until(1000);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator simulator;
  int count = 0;
  {
    PeriodicTask task(simulator, 10, [&] { ++count; });
    task.start();
    simulator.run_until(25);
  }
  simulator.run_until(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, StartAtAbsoluteTime) {
  Simulator simulator;
  std::vector<SimTime> times;
  PeriodicTask task(simulator, 10, [&] { times.push_back(simulator.now()); });
  task.start_at(7);
  simulator.run_until(40);
  EXPECT_EQ(times, (std::vector<SimTime>{7, 17, 27, 37}));
}

}  // namespace
}  // namespace p2panon::sim
