// Table 2: performance comparison among CurMix, SimRep(r = 2) and
// SimEra(k = 4, r = 4) — durability, construction attempts, latency and
// bandwidth, each reported as [random, biased].
//
// §6.2 methodology: pinned initiator and responder, Pareto churn (median
// 1 h), 1 h warm-up, a 1 KB message every 10 s for an hour, durability
// capped at 3600 s, averaged over seeds (paper: 10 runs).
#include <cstdio>

#include "common/config.hpp"
#include "harness/durability_experiment.hpp"
#include "harness/parallel.hpp"
#include "metrics/bootstrap.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::harness;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 1024, "network size");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& seeds = flags.add_int("seeds", 10, "runs to average");
  auto& threads = flags.add_int("threads", 0, "worker threads (0 = auto)");
  auto& json_path = obs::add_json_flag(flags);
  auto& health = flags.add_bool(
      "health", false,
      "after the sweep, run one diagnostic SimEra biased run with the "
      "rolling health scoreboard (30 s windows) and print it");
  flags.parse_or_exit(argc, argv);
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  const std::size_t workers =
      threads > 0 ? static_cast<std::size_t>(threads)
                  : default_worker_threads();

  const anon::ProtocolSpec protocol_rows[][2] = {
      {anon::ProtocolSpec::curmix(anon::MixChoice::kRandom),
       anon::ProtocolSpec::curmix(anon::MixChoice::kBiased)},
      {anon::ProtocolSpec::simrep(2, anon::MixChoice::kRandom),
       anon::ProtocolSpec::simrep(2, anon::MixChoice::kBiased)},
      {anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kRandom),
       anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased)},
  };
  const char* row_names[] = {"CurMix", "SimRep(r=2)", "SimEra(k=4,r=4)"};

  std::printf("# Table 2: performance comparison, %zu seeds, %lld nodes "
              "(cells are [random, biased])\n", runs,
              static_cast<long long>(nodes));

  std::string ci_lines;
  obs::BenchReport report("table2_performance");
  report.add("runs", static_cast<std::uint64_t>(runs));
  report.add("nodes", static_cast<std::uint64_t>(nodes));
  metrics::Table table({"Protocol", "Durability(sec)",
                        "Path construction attempts", "Latency(ms)",
                        "Bandwidth(KB)"});
  for (int row = 0; row < 3; ++row) {
    DurabilityAverages by_mix[2];
    for (int mix = 0; mix < 2; ++mix) {
      DurabilityConfig config;
      config.environment.num_nodes = static_cast<std::size_t>(nodes);
      config.environment.seed = static_cast<std::uint64_t>(seed);
      config.spec = protocol_rows[row][mix];
      by_mix[mix] = run_durability_average(config, runs, workers);
      const std::string prefix = std::string(row_names[row]) +
                                 (mix == 0 ? ".random." : ".biased.");
      report.add(prefix + "durability_s", by_mix[mix].durability_seconds);
      report.add(prefix + "construct_attempts",
                 by_mix[mix].construct_attempts);
      report.add(prefix + "latency_ms", by_mix[mix].latency_ms);
      report.add(prefix + "bandwidth_kb", by_mix[mix].bandwidth_kb);
    }
    table.add_row(
        {row_names[row],
         metrics::pair_cell(by_mix[0].durability_seconds,
                            by_mix[1].durability_seconds),
         metrics::pair_cell(by_mix[0].construct_attempts,
                            by_mix[1].construct_attempts, 1),
         metrics::pair_cell(by_mix[0].latency_ms, by_mix[1].latency_ms),
         metrics::pair_cell(by_mix[0].bandwidth_kb, by_mix[1].bandwidth_kb,
                            1)});
    ci_lines += std::string("  ") + row_names[row] +
                ": durability 95% bootstrap CI  random " +
                metrics::bootstrap_mean_ci(by_mix[0].durability_runs)
                    .to_string(0) +
                "  biased " +
                metrics::bootstrap_mean_ci(by_mix[1].durability_runs)
                    .to_string(0) +
                "\n";
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Durability uncertainty (percentile bootstrap over seeds):\n%s\n",
              ci_lines.c_str());
  std::printf(
      "Paper reference:\n"
      "  CurMix           [700, 1153]   [8.4, 1]  [374, 266]  [4, 4]\n"
      "  SimRep(r=2)      [1140, 1167]  [2.8, 1]  [270, 257]  [6.2, 6.8]\n"
      "  SimEra(k=4,r=4)  [1377, 2472]  [2.4, 1]  [406, 231]  [8.8, 10.4]\n"
      "Shape checks: redundancy and biased choice both raise durability;\n"
      "biased needs ~1 attempt; bandwidth ordering CurMix < SimRep < "
      "SimEra.\n");
  if (health) {
    // One diagnostic run outside the averaged cells: same setup as the
    // SimEra biased cell, base seed, scoreboard on.
    DurabilityConfig config;
    config.environment.num_nodes = static_cast<std::size_t>(nodes);
    config.environment.seed = static_cast<std::uint64_t>(seed);
    config.spec = anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased);
    config.health_interval = 30 * kSecond;
    const DurabilityResult diag = run_durability_experiment(config);
    std::printf("# Health scoreboard, SimEra(k=4,r=4)/biased, seed %lld "
                "(30 s windows)\n%s\n",
                static_cast<long long>(seed), diag.health_table.c_str());
    report.add("health_windows",
               static_cast<std::uint64_t>(diag.health.windows));
    report.add("health_churn_storm_windows",
               static_cast<std::uint64_t>(diag.health.churn_storm_windows));
    report.add("health_stalled_path_windows",
               static_cast<std::uint64_t>(diag.health.stalled_path_windows));
    report.add("health_max_transitions_per_window",
               diag.health.max_transitions_per_window);
  }
  report.add_section("table", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
