// Tests for the post-paper statistics extension: bootstrap confidence
// intervals.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "metrics/bootstrap.hpp"

namespace p2panon {
namespace {

// --- bootstrap ---------------------------------------------------------------------

TEST(BootstrapTest, CiCoversTrueMeanOfNormalishData) {
  Rng rng(1);
  std::vector<double> samples(200);
  for (auto& s : samples) {
    s = 10.0 + rng.uniform(-1, 1) + rng.uniform(-1, 1);  // mean 10
  }
  const auto ci = metrics::bootstrap_mean_ci(samples);
  EXPECT_GT(ci.mean, 9.7);
  EXPECT_LT(ci.mean, 10.3);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  EXPECT_LE(ci.lo, 10.0);
  EXPECT_GE(ci.hi, 10.0);
  // Interval is tight for 200 near-uniform samples.
  EXPECT_LT(ci.hi - ci.lo, 0.5);
}

TEST(BootstrapTest, WiderIntervalsForHeavyTails) {
  Rng rng(2);
  std::vector<double> light(30), heavy(30);
  for (auto& s : light) s = rng.uniform(900, 1100);
  for (auto& s : heavy) s = rng.pareto(1.1, 300.0);  // infinite-ish variance
  const auto light_ci = metrics::bootstrap_mean_ci(light);
  const auto heavy_ci = metrics::bootstrap_mean_ci(heavy);
  EXPECT_GT((heavy_ci.hi - heavy_ci.lo) / heavy_ci.mean,
            (light_ci.hi - light_ci.lo) / light_ci.mean);
}

TEST(BootstrapTest, DegenerateInputs) {
  EXPECT_EQ(metrics::bootstrap_mean_ci({}).mean, 0.0);
  const auto single = metrics::bootstrap_mean_ci({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.lo, 5.0);
  EXPECT_DOUBLE_EQ(single.hi, 5.0);
}

TEST(BootstrapTest, ProbabilityGreaterSeparatesClearCases) {
  std::vector<double> high = {10, 11, 12, 9, 10, 11};
  std::vector<double> low = {1, 2, 1, 3, 2, 1};
  EXPECT_GT(metrics::bootstrap_probability_greater(high, low), 0.99);
  EXPECT_LT(metrics::bootstrap_probability_greater(low, high), 0.01);
  // Identical sets: about a coin flip.
  const double p = metrics::bootstrap_probability_greater(high, high);
  EXPECT_GT(p, 0.3);
  EXPECT_LT(p, 0.7);
}

}  // namespace
}  // namespace p2panon
