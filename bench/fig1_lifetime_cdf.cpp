// Figure 1: cumulative distribution of node lifetimes — the measured
// Gnutella trace (Saroiu et al.) against Pareto(alpha = 0.83, beta = 1560 s).
//
// The measured trace is not redistributable, so we regenerate a stand-in by
// sampling the fitted Pareto with multiplicative session-level noise
// (DESIGN.md "Substitutions"): the paper's point — that the empirical CDF
// is well-fit by that Pareto — is what the bench verifies, reporting the
// Kolmogorov–Smirnov distance between the two curves.
#include <cmath>
#include <cstdio>

#include "churn/distributions.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "metrics/cdf.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"

using namespace p2panon;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& samples = flags.add_int("samples", 50000, "trace samples");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& noise = flags.add_double("noise", 0.15,
                                 "lognormal measurement noise (sigma)");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto n = static_cast<std::size_t>(
      static_cast<double>(samples) * bench_scale());

  const churn::ParetoLifetime pareto(0.83, 1560.0);
  Rng rng(static_cast<std::uint64_t>(seed));

  // Stand-in "measured" trace: fitted Pareto with per-session noise.
  metrics::EmpiricalCdf measured;
  for (std::size_t i = 0; i < n; ++i) {
    const double base = pareto.sample(rng);
    const double jitter =
        std::exp(noise * (rng.next_double() + rng.next_double() +
                          rng.next_double() - 1.5));  // ~lognormal
    measured.add(base * jitter);
  }

  std::printf("# Figure 1: node lifetime CDF, measured-trace stand-in vs "
              "Pareto(0.83, 1560 s)\n");
  std::printf("# x = lifetime (x10^4 sec), measured CDF, Pareto CDF\n");
  metrics::Series series("lifetime_x1e4s", {"measured", "pareto"});
  for (double t = 2000.0; t <= 70000.0; t += 2000.0) {
    series.add(t / 10000.0, {measured.at(t), pareto.cdf(t)});
  }
  std::printf("%s", series.render(4).c_str());

  const double ks =
      measured.ks_distance([&](double t) { return pareto.cdf(t); });
  std::printf("\nKS distance (measured vs fitted Pareto): %.4f "
              "(paper: curves 'closely match')\n", ks);
  obs::BenchReport report("fig1_lifetime_cdf");
  report.add("samples", static_cast<std::uint64_t>(n));
  report.add("ks_distance", ks);
  report.add_section("cdf", series.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
