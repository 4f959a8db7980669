// Ablation: even vs weighted segment allocation (the paper's §7 future
// work: "more segments are allocated to the paths that are more likely to
// be stable").
//
// Monte-Carlo over the Bernoulli path model with HETEROGENEOUS per-path
// survival probabilities (the situation weighted allocation is for): k
// paths get survival probabilities spread around a mean, n segments are
// placed either round-robin (even) or by largest-remainder proportional to
// the survival estimate (weighted, spread-capped), and we measure the
// probability that >= m segments arrive.
#include <cstdio>

#include "anon/allocation.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::anon;

namespace {

double delivery_probability(const ErasureParams& params,
                            const std::vector<double>& path_survival,
                            const Allocation& alloc, std::size_t trials,
                            Rng& rng) {
  std::size_t wins = 0;
  std::vector<bool> alive(params.k);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t j = 0; j < params.k; ++j) {
      alive[j] = rng.bernoulli(path_survival[j]);
    }
    if (segments_delivered(alloc, alive) >= params.m) ++wins;
  }
  return static_cast<double>(wins) / static_cast<double>(trials);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& trials = flags.add_int("trials", 200000, "Monte-Carlo trials per cell");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto n_trials = static_cast<std::size_t>(
      static_cast<double>(trials) * bench_scale());

  Rng rng(static_cast<std::uint64_t>(seed));

  // SimEra-like setups with two segments per path so weighting has room.
  struct Scenario {
    const char* name;
    std::size_t m, n, k;
    std::vector<double> survival;
  };
  const Scenario scenarios[] = {
      {"homogeneous p=0.55", 4, 8, 4, {0.55, 0.55, 0.55, 0.55}},
      {"mild spread", 4, 8, 4, {0.75, 0.65, 0.45, 0.35}},
      {"strong spread", 4, 8, 4, {0.95, 0.85, 0.25, 0.15}},
      {"one dying path", 4, 8, 4, {0.80, 0.80, 0.80, 0.10}},
      {"k=6 spread", 6, 12, 6, {0.9, 0.8, 0.7, 0.5, 0.3, 0.2}},
  };

  std::printf("# Ablation: even vs weighted segment allocation "
              "(P[>= m of n segments arrive], %zu trials)\n", n_trials);
  metrics::Table table({"scenario", "even", "weighted(spread=1)",
                        "weighted(spread=2)", "delta best"});
  for (const Scenario& s : scenarios) {
    ErasureParams params;
    params.m = s.m;
    params.n = s.n;
    params.k = s.k;
    const auto even = allocate_even(params);
    const auto weighted1 = allocate_weighted(params, s.survival, 1);
    const auto weighted2 = allocate_weighted(params, s.survival, 2);
    const double p_even =
        delivery_probability(params, s.survival, even, n_trials, rng);
    const double p_w1 =
        delivery_probability(params, s.survival, weighted1, n_trials, rng);
    const double p_w2 =
        delivery_probability(params, s.survival, weighted2, n_trials, rng);
    table.add_row({s.name, format_double(p_even, 4), format_double(p_w1, 4),
                   format_double(p_w2, 4),
                   format_double(std::max(p_w1, p_w2) - p_even, 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading (a real finding about the paper's future-work idea): "
      "weighted allocation is NOT a free win. Concentrating segments on "
      "the stablest paths creates correlated loss — when a favored path "
      "dies it takes several segments with it, which can more than cancel "
      "the gain (negative deltas at k = 4). With more paths relative to m "
      "(k = 6 row) the concentration is milder and weighting helps. A "
      "deployment should gate weighting on k/m headroom.\n");
  obs::BenchReport report("ablate_allocation");
  report.add("trials", static_cast<std::uint64_t>(n_trials));
  report.add_section("table", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
