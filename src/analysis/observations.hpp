// The paper's three observations about P(k) (§4.7) and tooling to pick
// (k, r) for a target resilience.
//
//   Obs. 1: p*r > 4/3        -> P(k) strictly increases in k; split as
//                               widely as possible.
//   Obs. 2: 1 < p*r <= 4/3   -> P(k) dips then rises: splitting helps only
//                               beyond some k0.
//   Obs. 3: p*r <= 1         -> P(k) strictly decreases; never split
//                               beyond r paths.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace p2panon::analysis {

enum class ObservationRegime { kAlwaysSplit, kSplitIfLarge, kNeverSplit };

const char* to_string(ObservationRegime regime);

/// Classifies by the p*r product per the paper's thresholds.
ObservationRegime classify_regime(double p, double r);

/// Empirically checks the regime over k in {r, 2r, ..., k_max} using the
/// closed form; returns the observed regime (used to validate the paper's
/// thresholds in tests and bench/fig2).
ObservationRegime observe_regime(double p, std::size_t r, std::size_t k_max);

/// For Obs. 2: the smallest k (multiple of r, k > r) from which P is
/// nondecreasing through k_max; returns 0 when P never dips.
std::size_t crossover_k(double p, std::size_t r, std::size_t k_max);

/// Parameter advisor: smallest (k, r) pair (minimizing bandwidth r, then
/// k) whose P(k) meets `target` given availability and path length.
struct ParameterChoice {
  std::size_t k = 0;
  std::size_t r = 0;
  double success = 0.0;
  double bandwidth_factor = 0.0;  // r (payload overhead vs single copy)
};

std::vector<ParameterChoice> advise_parameters(double node_availability,
                                               std::size_t path_length,
                                               double target_success,
                                               std::size_t max_r = 8,
                                               std::size_t max_k = 32);

}  // namespace p2panon::analysis
