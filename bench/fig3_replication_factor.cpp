// Figure 3: P(k) vs k for replication factors r = 2, 3, 4 at node
// availability 0.70 and L = 3. A bigger r dramatically increases the
// probability of success.
#include <cstdio>

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
  auto& pa = flags.add_double("availability", 0.70, "node availability");
  auto& L = flags.add_int("L", 3, "relays per path");
  auto& k_max = flags.add_int("kmax", 20, "max number of paths");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto mc_trials = static_cast<std::size_t>(
      static_cast<double>(trials) * bench_scale());

  Rng rng(static_cast<std::uint64_t>(seed));
  const double p = path_success_probability(pa, static_cast<std::size_t>(L));

  std::printf("# Figure 3: P(k) vs k for r in {2, 3, 4}, pa = %.2f, L = %lld"
              " (p = %.3f)\n", pa, static_cast<long long>(L), p);
  metrics::Series series("k", {"sim(r=2)", "model(r=2)", "sim(r=3)",
                               "model(r=3)", "sim(r=4)", "model(r=4)"});
  for (std::size_t k = 2; k <= static_cast<std::size_t>(k_max); k += 2) {
    std::vector<double> row;
    for (const std::size_t r : {2u, 3u, 4u}) {
      // Plot points only where k is a multiple of r (the paper's even
      // allocation requires it); reuse the nearest valid k otherwise.
      const std::size_t k_valid = (k / r) * r;
      if (k_valid == 0) {
        row.push_back(0.0);
        row.push_back(0.0);
        continue;
      }
      row.push_back(simera_success_monte_carlo(
          k_valid, static_cast<double>(r), p, mc_trials, rng));
      row.push_back(
          simera_success_probability(k_valid, static_cast<double>(r), p));
    }
    series.add(static_cast<double>(k), row);
  }
  std::printf("%s\n", series.render(4).c_str());
  std::printf("Expected (paper): success probability rises sharply with r; "
              "r = 4 approaches 1 for small k while r = 2 decays (Obs. 3 at "
              "pa = 0.70).\n");
  obs::BenchReport report("fig3_replication_factor");
  report.add("trials", static_cast<std::uint64_t>(mc_trials));
  report.add("path_success_p", p);
  report.add_section("pk_curves", series.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
