// In-memory host-time span log for the traced run.
//
// The benchmark wraps each call it makes into a layer (environment set-up
// phases, the warm-up and measurement windows, Session::construct,
// Session::send_message, the direct layer probes) in a Scope. Spans are
// kept in memory as fixed-size records and written out once, at exit, as a
// JSONL causal log that tools/trace_analyze reads. Nested spans share their
// root's correlation id, and a span's self time is its duration minus the
// time its direct children cover.
//
// A disabled log (every timed run) makes each Scope a single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Interns a span name; call once per name, outside hot loops.
  std::uint16_t intern(const std::string& name);

  class Scope {
   public:
    Scope(SpanLog& log, std::uint16_t name) : log_(log.enabled_ ? &log : nullptr) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  struct Stats {
    std::uint64_t calls = 0;
    double total_s = 0;  // summed durations
    double self_s = 0;   // summed durations minus direct children
    double p50_us = 0;   // of per-call durations
    double p99_us = 0;
  };
  /// Aggregate over every closed span with this name (zeros if none).
  Stats stats(const std::string& name) const;

  /// Writes every span as a begin/end pair in the JSONL causal-log format
  /// (obs::JsonlTraceSink). The analyzer's time axis ("sim_us") carries
  /// host nanoseconds since the log was created, so trace_analyze's
  /// span_stats totals are host nanoseconds.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint16_t name = 0;
    std::uint64_t corr = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    std::int64_t child_ns = 0;
  };

  std::size_t open(std::uint16_t name);
  void close(std::size_t index);
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices of open spans, innermost last
  std::uint64_t next_corr_ = 1;
};

}  // namespace e2e
