// Table 1: path setup success rates for the three anonymity protocols
// (CurMix, SimRep(r = 2), SimEra(k = 2, r = 2)) under random and biased
// mix choice. Full churn simulation per §6.2: 1024 nodes, Pareto median
// 1 h sessions, 1 h warm-up, ~16,000 construction events with exponential
// inter-arrival (mean 116 s).
#include <cstdio>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "harness/path_setup_experiment.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::harness;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 1024, "network size");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& interarrival =
      flags.add_double("interarrival", 116.0, "per-node inter-arrival (s)");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);

  PathSetupConfig config;
  config.environment.num_nodes = static_cast<std::size_t>(nodes);
  config.environment.seed = static_cast<std::uint64_t>(seed);
  config.event_interarrival_seconds = interarrival / bench_scale();

  // Row order matches the paper's table; each spec probed at every event.
  for (const auto mix : {anon::MixChoice::kRandom, anon::MixChoice::kBiased}) {
    config.specs.push_back(anon::ProtocolSpec::curmix(mix));
    config.specs.push_back(anon::ProtocolSpec::simrep(2, mix));
    config.specs.push_back(anon::ProtocolSpec::simera(2, 2, mix));
  }

  std::printf("# Table 1: path setup success rates (%lld nodes, Pareto "
              "median 1 h, L = 3)\n", static_cast<long long>(nodes));
  const auto result = run_path_setup_experiment(config);
  std::printf("# construction events = %llu, measured availability = %.3f\n\n",
              static_cast<unsigned long long>(result.events),
              result.availability);

  metrics::Table table(
      {"Mix choice", "CurMix", "SimRep(r=2)", "SimEra(k=2,r=2)"});
  const char* row_names[] = {"random", "biased"};
  for (int row = 0; row < 2; ++row) {
    std::vector<std::string> cells = {row_names[row]};
    for (int column = 0; column < 3; ++column) {
      const auto& ratio = result.success[static_cast<std::size_t>(
          row * 3 + column)];
      cells.push_back(format_double(ratio.percent(), 2) + "%");
    }
    table.add_row(cells);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper reference:      CurMix   SimRep(2)  SimEra(2,2)\n"
      "  random              2.64%%    4.98%%      4.98%%\n"
      "  biased              80.62%%   96.26%%     96.24%%\n"
      "Shape checks: redundancy roughly doubles the random-mix rate;\n"
      "SimRep(2) == SimEra(2,2) (identical conditions); biased >> random.\n"
      "(See EXPERIMENTS.md for the absolute-rate discrepancy between the\n"
      "paper's Table 1 and its own Table 2 attempt counts.)\n");
  obs::BenchReport report("table1_setup_rates");
  report.add("events", result.events);
  report.add("availability", result.availability);
  report.add_section("table", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
