// Table 4: SimEra(k = 4, r = 4) under different node lifetime
// distributions — Pareto (median 1 h), uniform (6 min..~2 h, mean 1 h) and
// exponential (mean 1 h). Cells are [random, biased]. Biased mix choice
// assumes Pareto; this table shows it still helps when that assumption is
// wrong.
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
  flags.parse_or_exit(argc, argv);
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  const std::size_t workers =
      threads > 0 ? static_cast<std::size_t>(threads)
                  : default_worker_threads();

  struct Row {
    const char* name;
    const char* spec;
  };
  const Row rows[] = {
      {"Pareto", "pareto:median=3600"},
      {"Uniform", "uniform:lo=360,hi=6840"},
      {"Exponential", "exp:mean=3600"},
  };

  std::printf("# Table 4: SimEra(k=4, r=4) vs lifetime distribution, %zu "
              "seeds (cells are [random, biased])\n", runs);

  std::string ci_lines;
  metrics::Table table({"Distribution", "Durability(sec)",
                        "Path construction attempts", "Latency(ms)",
                        "Bandwidth(KB)"});
  for (const Row& row : rows) {
    DurabilityAverages by_mix[2];
    for (int mix = 0; mix < 2; ++mix) {
      DurabilityConfig config;
      config.environment.num_nodes = static_cast<std::size_t>(nodes);
      config.environment.seed = static_cast<std::uint64_t>(seed);
      config.environment.session_distribution = row.spec;
      config.spec = anon::ProtocolSpec::simera(
          4, 4,
          mix == 0 ? anon::MixChoice::kRandom : anon::MixChoice::kBiased);
      by_mix[mix] = run_durability_average(config, runs, workers);
    }
    table.add_row(
        {row.name,
         metrics::pair_cell(by_mix[0].durability_seconds,
                            by_mix[1].durability_seconds),
         metrics::pair_cell(by_mix[0].construct_attempts,
                            by_mix[1].construct_attempts, 1),
         metrics::pair_cell(by_mix[0].latency_ms, by_mix[1].latency_ms),
         metrics::pair_cell(by_mix[0].bandwidth_kb, by_mix[1].bandwidth_kb,
                            1)});
    ci_lines += std::string("  ") + row.name +
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
      "  Pareto       [1377, 2472]  [2.4, 1]  [406, 231]  [8.8, 12.4]\n"
      "  Uniform      [284, 1467]   [2.2, 1]  [370, 219]  [8.4, 11.6]\n"
      "  Exponential  [1271, 2256]  [3.4, 1]  [415, 256]  [7.8, 11]\n"
      "Shape checks: Pareto gives the highest durability; uniform (old\n"
      "nodes die soon) the lowest; biased beats random under every\n"
      "distribution.\n");
  obs::BenchReport report("table4_distributions");
  report.add("runs", static_cast<std::uint64_t>(runs));
  report.add_section("table", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
