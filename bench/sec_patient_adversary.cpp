// Security experiment (paper §5 + §7 discussion): first-relay compromise
// under a *patient* adversary.
//
// A fraction f of nodes is malicious and never leaves (the paper's §7
// concern: "the attacker may attempt to stay longer in the system with the
// hope of being relay nodes of many paths"). Honest nodes churn normally.
// We measure, for random and biased mix choice, how often at least one of
// a path set's first relays is malicious (the event that lets the
// colluding attacker apply the paper's Case 1 guess), against the Eq. 4 /
// closed-form baselines for an attacker with no uptime advantage.
//
// Expected: random choice tracks the 1 - (1-f)^k baseline; biased choice
// is measurably worse because patient attackers accumulate uptime and the
// predictor rewards exactly that. Cover traffic (§4.6) and the incentive
// argument in §7 are the paper's mitigations.
#include <cstdio>

#include "adversary/attacks.hpp"
#include "adversary/link_observer.hpp"
#include "analysis/anonymity.hpp"
#include "anon/mix_selector.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "harness/environment.hpp"
#include "metrics/table.hpp"
#include "net/demux.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::harness;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 512, "network size");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& k = flags.add_int("k", 4, "paths per set");
  auto& L = flags.add_int("L", 3, "relays per path");
  auto& trials = flags.add_int("trials", 2000, "path sets per (f, mix)");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto n_trials = std::max<std::size_t>(
      50, static_cast<std::size_t>(static_cast<double>(trials) * bench_scale()));

  const double fractions[] = {0.05, 0.10, 0.20};

  std::printf("# Patient-adversary first-relay compromise, %lld nodes, "
              "k = %lld, L = %lld, %zu path sets per cell\n",
              static_cast<long long>(nodes), static_cast<long long>(k),
              static_cast<long long>(L), n_trials);

  metrics::Table table({"f (malicious)", "baseline 1-(1-f)^k",
                        "random mix", "biased mix"});
  for (const double f : fractions) {
    EnvironmentConfig config;
    config.num_nodes = static_cast<std::size_t>(nodes);
    config.seed = static_cast<std::uint64_t>(seed);
    Environment env(config);

    // Malicious nodes: a random fraction f, pinned up (patient).
    std::vector<bool> malicious(config.num_nodes, false);
    Rng mal_rng(static_cast<std::uint64_t>(seed) * 977 + 5);
    std::size_t planted = 0;
    const auto target =
        static_cast<std::size_t>(f * static_cast<double>(config.num_nodes));
    while (planted < target) {
      const auto node =
          static_cast<NodeId>(mal_rng.next_below(config.num_nodes));
      if (node < 2 || malicious[node]) continue;
      malicious[node] = true;
      env.churn().pin_up(node);
      ++planted;
    }

    env.start();
    env.simulator().run_until(1 * kHour);  // let attacker uptime accumulate

    // First-relay events are scored through the adversary pipeline: each
    // selected path set becomes synthetic origin-send flow records
    // (initiator -> first relay) in a LinkObserver, one 1 ms trial window
    // per set, and the predecessor attack's compromise_rate — the
    // fraction of windows where a compromised first relay saw an origin
    // send (Case 1) — is exactly the old "at least one malicious first
    // relay" event, now computed from the wire view.
    adversary::CompromiseModel model;
    model.compromised = malicious;
    model.fraction = f;
    double exposure[2] = {0.0, 0.0};
    for (int mix = 0; mix < 2; ++mix) {
      anon::MixSelector selector(
          mix == 0 ? anon::MixChoice::kRandom : anon::MixChoice::kBiased,
          Rng(static_cast<std::uint64_t>(seed) * 31 + mix));
      const SimTime now = env.simulator().now();
      adversary::ObserverConfig obs_config;
      obs_config.record_delivers = false;  // selection-time, nothing lands
      adversary::LinkObserver observer(obs_config);
      std::vector<adversary::TrialWindow> windows;
      for (std::size_t t = 0; t < n_trials; ++t) {
        const NodeId initiator =
            static_cast<NodeId>(2 + (t % (config.num_nodes - 2)));
        const auto paths = selector.select_paths(
            env.membership().cache(initiator), static_cast<std::size_t>(k),
            static_cast<std::size_t>(L), now, initiator, 1);
        if (!paths.has_value()) continue;
        const std::uint64_t base_us = t * 1000;
        net::LinkTapMeta meta;
        meta.protocol =
            static_cast<std::uint8_t>(net::Channel::kAnonForward);
        for (std::size_t p = 0; p < paths->size(); ++p) {
          meta.when_us = base_us + p;
          observer.on_send(initiator, (*paths)[p].front(), /*bytes=*/512,
                           meta);
        }
        windows.push_back({base_us, base_us + 999});
      }
      adversary::AttackScenario scenario;
      scenario.log = &observer.log();
      scenario.initiator = 2;  // varies per trial; only compromise_rate used
      scenario.responder = 1;
      scenario.num_nodes = config.num_nodes;
      const auto report =
          adversary::predecessor_attack(scenario, model, windows);
      exposure[mix] = report.compromise_rate;
    }

    table.add_row(
        {format_double(f, 2),
         format_double(analysis::multipath_first_relay_exposure(
                           f, static_cast<std::size_t>(k)), 3),
         format_double(exposure[0], 3),
         format_double(exposure[1], 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading: biased > random > baseline confirms the paper's §7 "
              "caveat — a patient adversary gains selection probability "
              "under biased mix choice. Eq. 4 single-path identification "
              "bound at f = 0.10, L = %lld, N = %lld: %.4f\n",
              static_cast<long long>(L), static_cast<long long>(nodes),
              analysis::initiator_identification_probability(
                  static_cast<std::size_t>(nodes), 0.10,
                  static_cast<std::size_t>(L)));
  obs::BenchReport report("sec_patient_adversary");
  report.add("trials", static_cast<std::uint64_t>(n_trials));
  report.add_section("exposure", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
