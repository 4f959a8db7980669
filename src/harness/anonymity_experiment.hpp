// Empirical anonymity measurement (DESIGN §10).
//
// One run = one Environment with a LinkObserver tapped into the wire, one
// designated initiator/responder pair, and a sequence of short sessions
// ("trials"): construct k paths, send a handful of messages, tear down.
// Optional cover traffic (§4.6) and fast churn arms perturb what the
// observer sees. After the simulation, the offline attack engine replays
// the captured FlowLog — predecessor (paper §5 Case 1, against a planted
// fraction-f insider set), intersection over trial windows, and timing
// correlation at the responder — and each AnonymityReport is paired with
// its closed-form comparator from src/analysis/anonymity.
//
// The observer and every knob here default OFF at the harness level: a
// ChaosConfig/EnvironmentConfig that never mentions this header runs
// byte-identically to the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/attacks.hpp"
#include "adversary/link_observer.hpp"
#include "anon/protocols.hpp"
#include "harness/environment.hpp"

namespace p2panon::harness {

struct AnonymityConfig {
  EnvironmentConfig environment;  // callers usually shrink num_nodes
  anon::ProtocolSpec spec;

  /// Insider fraction f for the predecessor attack; the initiator and
  /// responder are protected (the paper's adversary does not control the
  /// endpoints it is trying to link) and the insiders are pinned up —
  /// a patient adversary does not churn.
  double compromised_fraction = 0.1;

  /// Cover-traffic arm: this many nodes (taken from [2, 2+cover_nodes))
  /// send dummy messages every cover_interval, sized like real ones so
  /// the wire cannot tell them apart.
  bool cover_traffic = false;
  std::size_t cover_nodes = 24;
  SimDuration cover_interval = 10 * kSecond;

  SimDuration warmup = 5 * kMinute;    // gossip convergence
  std::size_t trials = 24;             // sequential sessions
  SimDuration trial_duration = 40 * kSecond;
  SimDuration trial_send_window = 25 * kSecond;  // sends within a trial
  SimDuration send_interval = 5 * kSecond;
  std::size_t message_size = 512;

  /// Hold the whole network up for the run. Default ON: validating the
  /// Eq. 4 / 1-(1-f)^k closed forms needs each trial to draw exactly k
  /// first relays, and churn-driven construction retries multiply the
  /// draws (every retry shows the attacker a fresh first relay — the
  /// classic predecessor-attack amplification). The churn arm turns this
  /// off precisely to measure that amplification.
  bool pin_all_up = true;

  /// Timing-correlation lag window: how far back from a responder
  /// ingress the attacker looks for candidate origin sends. Must cover a
  /// path traversal (L hops of mean one-way latency) with slack.
  SimDuration correlation_lag = 5 * kSecond;

  adversary::ObserverConfig observer;  // capture knobs (sampling, bounds)

  /// Non-empty: write the captured flow log as link-record JSONL after
  /// the run — the format tools/trace_analyze ingests via --flows, so
  /// flow records and span traces cross-reference by correlation id.
  std::string flow_log_path;

  NodeId initiator = 0;
  NodeId responder = 1;
};

struct AnonymityResult {
  std::size_t trials_attempted = 0;
  std::size_t trials_constructed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t cover_messages = 0;

  /// Ground truth from session.paths(): fraction of constructed trials
  /// whose path set had at least one compromised first relay. The
  /// predecessor attack's compromise_rate must agree with this — same
  /// events, observed from the wire instead of the protocol.
  double ground_truth_compromise_rate = 0.0;

  /// Actual planted insider fraction over the relay-eligible pool
  /// (count / (N - 2)); the closed forms below use this, not the
  /// requested fraction, so rounding never skews the comparison.
  double effective_fraction = 0.0;
  std::size_t compromised_count = 0;

  adversary::AnonymityReport predecessor;
  adversary::AnonymityReport intersection;
  adversary::AnonymityReport correlation;

  // Closed-form comparators (also copied into the reports' baselines).
  double eq4_identification = 0.0;   // Eq. 4 at (N, f_eff, L)
  double multipath_exposure = 0.0;   // 1 - (1 - f_eff)^k
  double honest_set_size = 0.0;      // N(1 - f) Case-2 pool
  double uniform_entropy = 0.0;      // log2 of the honest pool

  // Capture accounting.
  std::uint64_t flows_recorded = 0;
  std::uint64_t flows_evicted = 0;
  std::uint64_t flows_sampled_out = 0;
};

AnonymityResult run_anonymity_experiment(const AnonymityConfig& config);

}  // namespace p2panon::harness
