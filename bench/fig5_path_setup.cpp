// Figure 5: path setup success rates for SimEra with varying k and r,
// under (a) random and (b) biased mix choice — full churn simulation.
//
// 1024 nodes, Pareto churn (1 h median sessions), 1 h warm-up; nodes fire
// construction events and each event probes every (k, r, mix) spec with
// one whole-set attempt. Success = at least k/r of the k paths formed.
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
  auto& interarrival = flags.add_double(
      "interarrival", 928.0,
      "per-node event inter-arrival (s); 928 s gives ~2000 events");
  auto& k_max = flags.add_int("kmax", 20, "max number of paths");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);

  PathSetupConfig config;
  config.environment.num_nodes = static_cast<std::size_t>(nodes);
  config.environment.seed = static_cast<std::uint64_t>(seed);
  config.event_interarrival_seconds = interarrival / bench_scale();

  struct SpecIndex {
    std::size_t k;
    std::size_t r;
    anon::MixChoice mix;
    std::size_t index;
  };
  std::vector<SpecIndex> lookup;
  for (const auto mix : {anon::MixChoice::kRandom, anon::MixChoice::kBiased}) {
    for (const std::size_t r : {2u, 3u, 4u}) {
      for (std::size_t k = r; k <= static_cast<std::size_t>(k_max); k += r) {
        lookup.push_back(SpecIndex{k, r, mix, config.specs.size()});
        config.specs.push_back(anon::ProtocolSpec::simera(k, r, mix));
      }
    }
  }

  std::printf("# Figure 5: SimEra path setup success rate (%%) vs k, "
              "r in {2, 3, 4}; %lld nodes, Pareto median 1 h, L = 3\n",
              static_cast<long long>(nodes));
  const auto result = run_path_setup_experiment(config);
  std::printf("# events = %llu, measured availability = %.3f\n\n",
              static_cast<unsigned long long>(result.events),
              result.availability);

  for (const auto mix : {anon::MixChoice::kRandom, anon::MixChoice::kBiased}) {
    std::printf("## Figure 5(%s): %s mix choice (one series per r; k runs "
                "over multiples of r)\n",
                mix == anon::MixChoice::kRandom ? "a" : "b",
                anon::to_string(mix));
    for (const std::size_t r : {2u, 3u, 4u}) {
      metrics::Series series("k", {"r=" + std::to_string(r)});
      for (const auto& entry : lookup) {
        if (entry.mix != mix || entry.r != r) continue;
        series.add(static_cast<double>(entry.k),
                   {result.success[entry.index].percent()});
      }
      std::printf("%s\n", series.render(2).c_str());
    }
  }
  std::printf("Expected (paper): (a) random — a few percent, higher r "
              "better, decreasing in k; (b) biased — 90-100%%, nearly flat "
              "in k.\n");
  obs::BenchReport report("fig5_path_setup");
  report.add("events", result.events);
  report.add("availability", result.availability);
  metrics::Table success({"mix", "r", "k", "success_pct"});
  for (const auto& entry : lookup) {
    success.add_row({anon::to_string(entry.mix), std::to_string(entry.r),
                     std::to_string(entry.k),
                     format_double(result.success[entry.index].percent(), 2)});
  }
  report.add_section("success_rates", success.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
