// Figure 2: validation of the three observations — P(k) vs k for node
// availabilities 0.70 (Obs. 3), 0.86 (Obs. 2), 0.95 (Obs. 1), with r = 2
// and L = 3. Prints the Monte-Carlo simulated probability (the paper's
// "simulation") next to the closed form, and reports which observation
// regime each availability lands in.
#include <cstdio>

#include "analysis/observations.hpp"
#include "analysis/path_model.hpp"
#include "common/config.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::analysis;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& trials = flags.add_int("trials", 200000, "Monte-Carlo trials per point");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& r = flags.add_int("r", 2, "replication factor");
  auto& L = flags.add_int("L", 3, "relays per path");
  auto& k_max = flags.add_int("kmax", 20, "max number of paths");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto mc_trials = static_cast<std::size_t>(
      static_cast<double>(trials) * bench_scale());

  const double availabilities[] = {0.70, 0.86, 0.95};
  Rng rng(static_cast<std::uint64_t>(seed));

  std::printf("# Figure 2: P(k) vs k, r = %lld, L = %lld "
              "(sim = Monte-Carlo, model = closed form)\n",
              static_cast<long long>(r), static_cast<long long>(L));
  metrics::Series series(
      "k", {"sim(0.70)", "model(0.70)", "sim(0.86)", "model(0.86)",
            "sim(0.95)", "model(0.95)"});
  for (std::size_t k = static_cast<std::size_t>(r);
       k <= static_cast<std::size_t>(k_max);
       k += static_cast<std::size_t>(r)) {
    std::vector<double> row;
    for (const double pa : availabilities) {
      const double p =
          path_success_probability(pa, static_cast<std::size_t>(L));
      row.push_back(simera_success_monte_carlo(
          k, static_cast<double>(r), p, mc_trials, rng));
      row.push_back(simera_success_probability(k, static_cast<double>(r), p));
    }
    series.add(static_cast<double>(k), row);
  }
  std::printf("%s\n", series.render(4).c_str());

  for (const double pa : availabilities) {
    const double p = path_success_probability(pa, static_cast<std::size_t>(L));
    const auto regime = observe_regime(p, static_cast<std::size_t>(r),
                                       static_cast<std::size_t>(k_max) * 2);
    std::printf("pa = %.2f: p = %.3f, p*r = %.3f -> %s", pa, p,
                p * static_cast<double>(r), to_string(regime));
    if (regime == ObservationRegime::kSplitIfLarge) {
      std::printf(" (dip recovers after k0 = %zu)",
                  crossover_k(p, static_cast<std::size_t>(r),
                              static_cast<std::size_t>(k_max) * 2));
    }
    std::printf("\n");
  }
  std::printf("\nExpected (paper): 0.95 rises monotonically (Obs. 1); 0.86 "
              "dips then rises around k = 4 (Obs. 2); 0.70 falls "
              "monotonically (Obs. 3).\n");
  obs::BenchReport report("fig2_observations");
  report.add("trials", static_cast<std::uint64_t>(mc_trials));
  report.add_section("pk_curves", series.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
