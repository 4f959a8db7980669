#include "obs/capacity/loop_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace p2panon::obs::capacity {

namespace {

using Clock = std::chrono::steady_clock;

struct TypeTable {
  std::mutex mutex;
  std::vector<std::string> names{"untyped"};
};

TypeTable& type_table() {
  static TypeTable table;
  return table;
}

std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// The sample clock. On x86 it is the time-stamp counter, read directly:
/// a pair costs about half a steady_clock pair (48 vs 94 ns on a KVM
/// Xeon), and at stride 1 every event pays one pair. Elsewhere it is
/// steady_clock in nanoseconds.
std::uint64_t read_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

struct Calibration {
  double ns_per_tick = 1.0;
  double clock_pair_ns = 0.0;  // mean cost of one timed sample
};

/// Times a fixed burst of tick-clock pairs against steady_clock: the
/// ratio converts ticks to nanoseconds and the mean is the cost of one
/// timed sample. Cheap and stable; re-run per profiler, because frequency
/// scaling between runs is real overhead and should be re-measured, not
/// cached.
Calibration calibrate() {
  constexpr int kBurst = 4096;
  volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  const std::uint64_t start_ticks = read_ticks();
  for (int i = 0; i < kBurst; ++i) {
    const std::uint64_t t0 = read_ticks();
    const std::uint64_t t1 = read_ticks();
    sink = sink + (t1 - t0);
  }
  const std::uint64_t end_ticks = read_ticks();
  const auto ns = static_cast<double>(elapsed_ns(start, Clock::now()));
  Calibration out;
  if (end_ticks > start_ticks) {
    out.ns_per_tick = ns / static_cast<double>(end_ticks - start_ticks);
  }
  out.clock_pair_ns = ns / kBurst;
  return out;
}

}  // namespace

EventTypeId event_type(const char* name) {
  if (name == nullptr || name[0] == '\0') return kUntypedEvent;
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (table.names[i] == name) return static_cast<EventTypeId>(i);
  }
  if (table.names.size() >= kMaxEventTypes) return kUntypedEvent;
  table.names.emplace_back(name);
  return static_cast<EventTypeId>(table.names.size() - 1);
}

const char* event_type_name(EventTypeId id) {
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  if (id >= table.names.size()) return "";
  return table.names[id].c_str();
}

std::size_t event_type_count() {
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.names.size();
}

LoopProfiler::LoopProfiler() : LoopProfiler(Config{}) {}

LoopProfiler::LoopProfiler(Config config)
    : stride_(config.sample_stride > 0 ? config.sample_stride : 1) {
  const Calibration calibration = calibrate();
  ns_per_tick_ = calibration.ns_per_tick;
  clock_pair_ns_ = calibration.clock_pair_ns;
}

void LoopProfiler::dispatch(EventTypeId type,
                            const std::function<void()>& fn) {
  Slot& slot = slots_[type < kMaxEventTypes ? type : kUntypedEvent];
  ++slot.dispatches;
  if (++tick_ >= stride_) {
    tick_ = 0;
    const std::uint64_t t0 = read_ticks();
    fn();
    const std::uint64_t t1 = read_ticks();
    ++slot.samples;
    // A thread moved between cores with unsynchronised counters could see
    // time run backwards; such a sample adds nothing rather than wrapping.
    if (t1 > t0) slot.sampled_ticks += t1 - t0;
  } else {
    fn();
  }
}

LoopProfiler::Report LoopProfiler::report() const {
  Report out;
  out.clock_pair_ns = clock_pair_ns_;
  out.sample_stride = stride_;
  for (std::size_t i = 0; i < kMaxEventTypes; ++i) {
    const Slot& slot = slots_[i];
    if (slot.dispatches == 0) continue;
    TypeReport type;
    type.name = event_type_name(static_cast<EventTypeId>(i));
    if (type.name.empty()) type.name = "untyped";
    type.dispatches = slot.dispatches;
    type.samples = slot.samples;
    type.sampled_ns = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(slot.sampled_ticks) * ns_per_tick_));
    if (slot.samples > 0) {
      type.est_total_ns = static_cast<double>(type.sampled_ns) *
                          static_cast<double>(slot.dispatches) /
                          static_cast<double>(slot.samples);
    }
    out.dispatches_total += slot.dispatches;
    out.samples_total += slot.samples;
    out.sampled_ns_total += type.sampled_ns;
    out.est_busy_ns_total += type.est_total_ns;
    out.types.push_back(std::move(type));
  }
  out.est_overhead_ns =
      static_cast<double>(out.samples_total) * clock_pair_ns_;
  for (TypeReport& type : out.types) {
    type.share = out.est_busy_ns_total > 0
                     ? type.est_total_ns / out.est_busy_ns_total
                     : 0.0;
  }
  std::sort(out.types.begin(), out.types.end(),
            [](const TypeReport& a, const TypeReport& b) {
              if (a.est_total_ns != b.est_total_ns) {
                return a.est_total_ns > b.est_total_ns;
              }
              return a.name < b.name;
            });
  return out;
}

std::string LoopProfiler::report_json() const {
  const Report rep = report();
  std::string out = "{\"dispatches\":" + std::to_string(rep.dispatches_total);
  out += ",\"samples\":" + std::to_string(rep.samples_total);
  out += ",\"sample_stride\":" + std::to_string(rep.sample_stride);
  out += ",\"sampled_ns\":" + std::to_string(rep.sampled_ns_total);
  out += ",\"est_busy_ns\":" + std::to_string(rep.est_busy_ns_total);
  out += ",\"clock_pair_ns\":" + std::to_string(rep.clock_pair_ns);
  out += ",\"est_overhead_ns\":" + std::to_string(rep.est_overhead_ns);
  out += ",\"types\":[";
  bool first = true;
  for (const TypeReport& type : rep.types) {
    if (!first) out += ',';
    first = false;
    out += "{\"type\":\"" + json_escape(type.name) + '"';
    out += ",\"dispatches\":" + std::to_string(type.dispatches);
    out += ",\"samples\":" + std::to_string(type.samples);
    out += ",\"sampled_ns\":" + std::to_string(type.sampled_ns);
    out += ",\"est_total_ns\":" + std::to_string(type.est_total_ns);
    out += ",\"share\":" + std::to_string(type.share);
    out += '}';
  }
  out += "]}";
  return out;
}

void LoopProfiler::publish(Registry& registry) const {
  const Report rep = report();
  for (const TypeReport& type : rep.types) {
    registry.counter("cap_loop_dispatch_total", {{"type", type.name}})
        ->inc(type.dispatches);
    registry.counter("cap_loop_samples_total", {{"type", type.name}})
        ->inc(type.samples);
    registry.gauge("cap_loop_selftime_est_ns", {{"type", type.name}})
        ->set(static_cast<std::int64_t>(type.est_total_ns));
  }
  registry.gauge("cap_loop_sample_stride")
      ->set(static_cast<std::int64_t>(rep.sample_stride));
  registry.gauge("cap_loop_clock_pair_ns")
      ->set(static_cast<std::int64_t>(rep.clock_pair_ns));
  registry.gauge("cap_loop_overhead_est_ns")
      ->set(static_cast<std::int64_t>(rep.est_overhead_ns));
}

void LoopProfiler::reset() {
  for (Slot& slot : slots_) slot = Slot{};
  tick_ = 0;
}

}  // namespace p2panon::obs::capacity
