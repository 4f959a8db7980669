#include "spans.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace e2e {

std::uint16_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::size_t SpanLog::open(std::uint16_t name) {
  Span span;
  span.name = name;
  span.corr = stack_.empty() ? next_corr_++ : spans_[stack_.front()].corr;
  span.begin_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  Span& span = spans_[index];
  span.end_ns = now_ns();
  stack_.pop_back();
  if (!stack_.empty()) {
    spans_[stack_.back()].child_ns += span.end_ns - span.begin_ns;
  }
}

SpanLog::Stats SpanLog::stats(const std::string& name) const {
  Stats out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint16_t>(it - names_.begin());
  std::vector<std::int64_t> durations;
  std::int64_t total = 0;
  std::int64_t self = 0;
  for (const Span& span : spans_) {
    if (span.name != id || span.end_ns < 0) continue;
    const std::int64_t d = span.end_ns - span.begin_ns;
    durations.push_back(d);
    total += d;
    self += d - span.child_ns;
  }
  if (durations.empty()) return out;
  std::sort(durations.begin(), durations.end());
  const auto pick = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(durations.size() - 1) + 0.5);
    return static_cast<double>(durations[rank]) / 1e3;
  };
  out.calls = durations.size();
  out.total_s = static_cast<double>(total) / 1e9;
  out.self_s = static_cast<double>(self) / 1e9;
  out.p50_us = pick(0.50);
  out.p99_us = pick(0.99);
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  // Begin and end records in time order, so the analyzer's FIFO matching
  // pairs each end with its own begin.
  struct Edge {
    std::int64_t at_ns;
    bool begin;
    std::size_t span;
  };
  std::vector<Edge> edges;
  edges.reserve(spans_.size() * 2);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    edges.push_back({spans_[i].begin_ns, true, i});
    edges.push_back({spans_[i].end_ns, false, i});
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) {
                     if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
                     return !a.begin && b.begin;  // ends first on ties
                   });
  p2panon::obs::JsonlTraceSink sink;
  for (const Edge& edge : edges) {
    const Span& span = spans_[edge.span];
    p2panon::obs::TraceRecord record;
    record.phase = edge.begin ? p2panon::obs::TraceRecord::Phase::kBegin
                              : p2panon::obs::TraceRecord::Phase::kEnd;
    record.category = "e2ebench";
    record.name = names_[span.name];
    record.corr = span.corr;
    record.sim_us = static_cast<std::uint64_t>(edge.at_ns);
    record.wall_ns = static_cast<std::uint64_t>(edge.at_ns);
    sink.emit(record);
  }
  return sink.write_file(path);
}

}  // namespace e2e
