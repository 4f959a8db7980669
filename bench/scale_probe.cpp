// Capacity scale probe: events/sec, memory footprint and event-type time
// shares across network sizes — the data behind BENCH_scale.json and the
// scripts/check_bench.py CI gate (ROADMAP "push N toward 100k").
//
// One arm = (N, scenario). Per arm the probe builds a full Environment
// with the capacity loop profiler attached, runs a bounded number of
// events (warmup excluded from timing), and records:
//   * events/sec over the measured window (wall clock) — membership
//     throughput only, since the probe carries no anonymous traffic;
//   * a deterministic byte census of every big structure, total and
//     per-node, per subsystem (the O(N²) latency matrix shows up here as
//     a number, not a comment);
//   * alloc-probe live/peak bytes per subsystem tag (this binary links
//     the counting operator new/delete hooks);
//   * process peak RSS (also in the shared provenance block);
//   * the profiler's top event-type self-time shares and its measured
//     self-overhead (the gate holds it under 3% of the measured wall
//     time).
//
// Scenarios: "steady" (hour-scale median sessions — the gossip/anti-
// entropy steady state dominates) and "churn" (minutes-scale sessions —
// transition and detection events pile on top).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/config.hpp"
#include "harness/environment.hpp"
#include "obs/capacity/census.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/capacity/rusage.hpp"
#include "obs/export.hpp"

using namespace p2panon;

namespace {

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) sizes.push_back(std::stoul(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

/// Alloc-probe scope table rendered as one JSON object (scope -> stats).
std::string alloc_scopes_json() {
  std::string out = "{";
  bool first = true;
  for (std::uint32_t id = 0; id < alloc_probe::scope_count(); ++id) {
    const auto stats = alloc_probe::scope_stats(id);
    if (!first) out += ",";
    first = false;
    out += "\"" + std::string(alloc_probe::scope_name(id)) + "\":{";
    out += "\"allocs\":" + std::to_string(stats.allocs);
    out += ",\"frees\":" + std::to_string(stats.frees);
    out += ",\"live_bytes\":" + std::to_string(stats.live_bytes);
    out += ",\"peak_bytes\":" + std::to_string(stats.peak_bytes);
    out += "}";
  }
  out += "}";
  return out;
}

struct ArmResult {
  std::string name;
  double events_per_sec = 0;
  std::uint64_t events_executed = 0;
  double wall_seconds = 0;
  std::uint64_t census_total = 0;
  std::uint64_t census_matrix = 0;
  double profiler_overhead_pct = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t current_rss_kb = 0;
  std::uint64_t live_bytes = 0;
  std::string census_json;
  std::string profiler_json;
  std::string alloc_json;
};

ArmResult run_arm(std::size_t nodes, const std::string& scenario,
                  std::size_t warmup_events, std::size_t measure_events,
                  std::uint32_t stride) {
  ArmResult arm;
  arm.name = "n" + std::to_string(nodes) + "_" + scenario;

  obs::capacity::LoopProfiler::Config profiler_config;
  profiler_config.sample_stride = stride;
  obs::capacity::LoopProfiler profiler(profiler_config);

  harness::EnvironmentConfig config;
  config.num_nodes = nodes;
  config.seed = 7;
  config.session_distribution =
      scenario == "churn" ? "pareto:median=600" : "pareto:median=3600";
  config.loop_profiler = &profiler;

  harness::Environment env(config);
  env.start();

  env.simulator().run_steps(warmup_events);
  profiler.reset();  // measured window only

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  arm.events_executed = env.simulator().run_steps(measure_events);
  arm.wall_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  arm.events_per_sec =
      arm.wall_seconds > 0
          ? static_cast<double>(arm.events_executed) / arm.wall_seconds
          : 0;

  obs::capacity::ByteCensus census;
  env.byte_census(census);
  arm.census_total = census.total();
  arm.census_matrix = census.subsystem_total("latency_matrix");
  arm.census_json = census.to_json(nodes);

  const auto report = profiler.report();
  arm.profiler_overhead_pct =
      arm.wall_seconds > 0
          ? 100.0 * report.est_overhead_ns / (arm.wall_seconds * 1e9)
          : 0;
  arm.profiler_json = profiler.report_json();

  const auto usage = obs::capacity::sample_resource_usage();
  arm.peak_rss_kb = usage.max_rss_kb;
  arm.current_rss_kb = usage.current_rss_kb;
  arm.live_bytes = alloc_probe::live_bytes();
  arm.alloc_json = alloc_scopes_json();
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& sizes_csv = flags.add_string(
      "sizes", "1024,2048,4096,8192,16384", "comma-separated network sizes");
  auto& scenarios_csv =
      flags.add_string("scenarios", "steady,churn", "steady and/or churn");
  auto& warmup = flags.add_int("warmup-events", 50000,
                               "events run before the measured window");
  auto& events = flags.add_int("events", 200000,
                               "events in the measured window (per arm)");
  auto& stride =
      flags.add_int("stride", 16, "profiler sampling stride (1 = every event)");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);

  const auto sizes = parse_sizes(sizes_csv);
  std::vector<std::string> scenario_names;
  {
    std::size_t pos = 0;
    const std::string& csv = scenarios_csv;
    while (pos < csv.size()) {
      const std::size_t comma = csv.find(',', pos);
      const std::string item = csv.substr(
          pos, comma == std::string::npos ? comma : comma - pos);
      if (!item.empty()) scenario_names.push_back(item);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const auto measure_events = std::max<std::size_t>(
      1000, static_cast<std::size_t>(static_cast<double>(events) *
                                     bench_scale()));
  const auto warmup_events = std::max<std::size_t>(
      100, static_cast<std::size_t>(static_cast<double>(warmup) *
                                    bench_scale()));

  std::printf("# Capacity scale probe (%zu sizes x %zu scenarios, "
              "%zu measured events/arm, stride %d)\n",
              sizes.size(), scenario_names.size(), measure_events,
              static_cast<int>(stride));
  std::printf("%-16s %14s %12s %14s %14s %10s\n", "arm", "events/sec",
              "census_MB", "census_B/node", "peak_rss_MB", "ovh_%");

  obs::BenchReport report("scale_probe");
  report.add("alloc_probe_active",
             static_cast<std::uint64_t>(alloc_probe::active() ? 1 : 0));
  report.add("sample_stride", static_cast<std::uint64_t>(stride));
  report.add("measure_events", static_cast<std::uint64_t>(measure_events));

  std::string arms_list = "[";
  bool first_arm = true;
  for (const std::size_t n : sizes) {
    for (const std::string& scenario : scenario_names) {
      const ArmResult arm =
          run_arm(n, scenario, warmup_events, measure_events,
                  static_cast<std::uint32_t>(std::max(1, (int)stride)));
      std::printf("%-16s %14.0f %12.1f %14.0f %14.1f %10.2f\n",
                  arm.name.c_str(), arm.events_per_sec,
                  static_cast<double>(arm.census_total) / 1e6,
                  static_cast<double>(arm.census_total) /
                      static_cast<double>(n),
                  static_cast<double>(arm.peak_rss_kb) / 1024.0,
                  arm.profiler_overhead_pct);

      report.add(arm.name + "_nodes", static_cast<std::uint64_t>(n));
      report.add(arm.name + "_events_per_sec", arm.events_per_sec);
      report.add(arm.name + "_events_executed", arm.events_executed);
      report.add(arm.name + "_wall_seconds", arm.wall_seconds);
      report.add(arm.name + "_census_total_bytes", arm.census_total);
      report.add(arm.name + "_census_bytes_per_node",
                 static_cast<double>(arm.census_total) /
                     static_cast<double>(n));
      report.add(arm.name + "_census_matrix_bytes", arm.census_matrix);
      report.add(arm.name + "_census_nonmatrix_bytes_per_node",
                 static_cast<double>(arm.census_total - arm.census_matrix) /
                     static_cast<double>(n));
      report.add(arm.name + "_peak_rss_kb", arm.peak_rss_kb);
      report.add(arm.name + "_current_rss_kb", arm.current_rss_kb);
      report.add(arm.name + "_live_bytes", arm.live_bytes);
      report.add(arm.name + "_profiler_overhead_pct",
                 arm.profiler_overhead_pct);
      report.add_section(arm.name + "_census", arm.census_json);
      report.add_section(arm.name + "_profiler", arm.profiler_json);
      report.add_section(arm.name + "_alloc", arm.alloc_json);

      if (!first_arm) arms_list += ",";
      first_arm = false;
      arms_list += "\"" + arm.name + "\"";
    }
  }
  arms_list += "]";
  report.add_section("arms", arms_list);

  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
