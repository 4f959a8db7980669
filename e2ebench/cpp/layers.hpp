// Per-layer metrics for the traced run: the loop profiler's self-time per
// event type, the benchmark's own spans, the link tap's per-channel
// counts, the run's metrics registry and byte census, and direct timed
// calls into single layers (latency matrix, PKI, membership record codec,
// onion crypto, erasure coding).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Counts datagrams and bytes per demux channel as they are handed to the
/// wire. Passive: it never touches the run.
class ChannelTap final : public p2panon::net::LinkTap {
 public:
  static constexpr std::size_t kChannels = 6;  // 0 = unframed, 1..5 = Channel
  void on_send(p2panon::NodeId, p2panon::NodeId, std::size_t size,
               const p2panon::net::LinkTapMeta& meta) override {
    const std::size_t c = meta.protocol < kChannels ? meta.protocol : 0;
    ++datagrams[c];
    bytes[c] += size;
  }
  void on_deliver(p2panon::NodeId, p2panon::NodeId, std::size_t,
                  const p2panon::net::LinkTapMeta&) override {}

  std::array<std::uint64_t, kChannels> datagrams{};
  std::array<std::uint64_t, kChannels> bytes{};
};

/// Everything one traced iteration leaves behind.
struct TracedRun {
  std::string workload_name;
  /// Check that the workload's target layer holds the largest share (full
  /// size only: the reduced smoke-test sizes are too small to load it).
  bool check_split = false;
  Workload* workload = nullptr;
  SetupTimes setup;
  double wall_s = 0;          // host time of the traced run
  double untraced_run_s = 0;  // untraced run of the same batch
  const p2panon::obs::capacity::LoopProfiler* profiler = nullptr;
  const ChannelTap* tap = nullptr;
  const SpanLog* spans = nullptr;
  std::uint64_t seed = 0;
};

/// Per-layer metrics of one traced iteration. `problems` collects coverage
/// check failures: untyped time over 5% of dispatch, named layers plus
/// sim.loop_s off the traced wall time by over 5%, sim.loop_s outside its
/// bound, or (with check_split) the workload's target layer not the
/// largest share.
Metrics layer_metrics(const TracedRun& run, std::vector<std::string>& problems);

}  // namespace e2e
