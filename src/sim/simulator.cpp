#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace p2panon::sim {

EventId Simulator::schedule_at(SimTime when, EventQueue::Callback fn,
                               obs::capacity::EventTypeId type) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at in the past");
  }
  return queue_.schedule(when, std::move(fn), type);
}

EventId Simulator::schedule_after(SimDuration delay, EventQueue::Callback fn,
                                  obs::capacity::EventTypeId type) {
  if (delay < 0) delay = 0;
  return queue_.schedule(now_ + delay, std::move(fn), type);
}

bool Simulator::step(SimTime deadline) {
  std::optional<EventQueue::Ready> ready = queue_.pop_due(deadline);
  if (!ready) return false;
  now_ = ready->time;
  ++executed_;
  // Restore the correlation id captured at schedule() time so everything the
  // callback does (including scheduling further events) stays on the chain.
  obs::CorrelationScope scope(ready->corr);
  if (profiler_ != nullptr) {
    profiler_->dispatch(ready->type, ready->fn);
  } else {
    ready->fn();
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step(kNeverTime)) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && step(deadline)) {
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

std::size_t Simulator::run_steps(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_ && step(kNeverTime)) ++n;
  return n;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0;
  stopped_ = false;
  executed_ = 0;
}

PeriodicTask::PeriodicTask(Simulator& simulator, SimDuration interval,
                           std::function<void()> fn,
                           obs::capacity::EventTypeId type)
    : simulator_(simulator),
      interval_(interval),
      fn_(std::move(fn)),
      type_(type) {}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::start() {
  cancel();
  event_ = simulator_.schedule_after(interval_, [this] { fire(); }, type_);
}

void PeriodicTask::start_at(SimTime when) {
  cancel();
  event_ = simulator_.schedule_at(when, [this] { fire(); }, type_);
}

void PeriodicTask::cancel() {
  if (event_ != kInvalidEventId) {
    simulator_.cancel(event_);
    event_ = kInvalidEventId;
  }
}

void PeriodicTask::fire() {
  // Reschedule before running so the callback can cancel() the series.
  event_ = simulator_.schedule_after(interval_, [this] { fire(); }, type_);
  fn_();
}

}  // namespace p2panon::sim
