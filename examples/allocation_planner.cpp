// Allocation planner: the paper's §4.7 observations turned into an
// operator tool. Given measured node availability, path length and a
// delivery-probability target, it reports which observation regime you are
// in and the cheapest (k, r) parameterizations that hit the target,
// together with the §5 anonymity cost of running k first relays.
//
//   ./build/examples/allocation_planner --availability 0.86 --target 0.999
#include <cstdio>

#include "analysis/anonymity.hpp"
#include "analysis/bandwidth_model.hpp"
#include "analysis/observations.hpp"
#include "analysis/path_model.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "metrics/table.hpp"

using namespace p2panon;
using namespace p2panon::analysis;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& availability =
      flags.add_double("availability", 0.86, "node availability in [0, 1]");
  auto& L = flags.add_int("L", 3, "relays per path");
  auto& target = flags.add_double("target", 0.99, "delivery probability target");
  auto& message = flags.add_int("message", 1024, "message size (bytes)");
  auto& nodes = flags.add_int("nodes", 1024, "anonymity set size N");
  auto& attackers =
      flags.add_double("attackers", 0.1, "fraction of colluding nodes f");
  flags.parse_or_exit(argc, argv);

  const auto path_len = static_cast<std::size_t>(L);
  const double p = path_success_probability(availability, path_len);

  std::printf("node availability pa = %.2f, L = %zu  =>  per-path success "
              "p = pa^L = %.3f\n\n", availability, path_len, p);

  for (const std::size_t r : {2u, 3u, 4u}) {
    const auto regime = classify_regime(p, static_cast<double>(r));
    std::printf("r = %zu: p*r = %.3f -> %s", r, p * static_cast<double>(r),
                to_string(regime));
    if (regime == ObservationRegime::kSplitIfLarge) {
      std::printf(" (P(k) recovers beyond k0 = %zu)",
                  crossover_k(p, r, 64));
    }
    std::printf("\n");
  }

  std::printf("\ncheapest parameterizations reaching P >= %.3f:\n\n", target);
  const auto choices = advise_parameters(availability, path_len, target);
  BandwidthModel bandwidth;
  bandwidth.message_size = static_cast<std::size_t>(message);
  bandwidth.path_length = path_len;

  metrics::Table table({"k", "r", "P(k)", "bandwidth/message",
                        "P(first-relay compromised)"});
  for (const auto& choice : choices) {
    table.add_row(
        {std::to_string(choice.k), std::to_string(choice.r),
         format_double(choice.success, 4),
         format_bytes(bandwidth.full_delivery_cost(
             choice.k, static_cast<double>(choice.r))),
         format_double(
             multipath_first_relay_exposure(attackers, choice.k), 3)});
  }
  if (choices.empty()) {
    std::printf("  (no (k, r) with r <= 8, k <= 32 reaches the target; "
                "raise r or improve availability)\n");
  } else {
    std::printf("%s", table.render().c_str());
  }

  std::printf("\nanonymity bound (Eq. 4): with N = %lld and f = %.2f, the "
              "attacker identifies the initiator of a single path with "
              "probability %.4f\n",
              static_cast<long long>(nodes), attackers,
              initiator_identification_probability(
                  static_cast<std::size_t>(nodes), attackers, path_len));
  return 0;
}
