// The benchmark's workloads: each is a fixed batch of simulated work built
// from the seed alone, set up and then run to completion through the
// simulator's public calls.
//
//   paper_cell    §6.2 Table 2 cell SimEra(k=4,r=4), biased mix choice,
//                 N=1024, 1 h warm-up + 1 h measurement, FastOnionCodec —
//                 the same calls run_durability_experiment makes.
//   anon_load     N=256, 16 pinned initiator->responder sessions split over
//                 CurMix / SimRep(2) / SimEra(4,4) (biased), steady
//                 Poisson arrivals from workload::WorkloadEngine's default
//                 mix (interactive 256 B / streaming 1 KiB / bulk 4 KiB)
//                 for 10 min after a 30 min gossip warm-up (churn starts
//                 as they do), FastOnionCodec.
//   onion_crypto  anon_load's sessions and mix at a lower rate with
//                 RealOnionCodec (X25519 sealed boxes, ChaCha20-Poly1305).
//
// "small" shrinks every workload for the smoke test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/environment.hpp"
#include "net/transport.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "spans.hpp"

namespace e2e {

/// Everything the traced run attaches; all null/disabled in timed runs.
struct Instruments {
  p2panon::obs::capacity::LoopProfiler* profiler = nullptr;
  p2panon::net::LinkTap* tap = nullptr;
  SpanLog* spans = nullptr;
};

/// The simulated outputs a run must reproduce exactly: ordered key/value
/// pairs rendered as text.
struct Fingerprint {
  std::vector<std::pair<std::string, std::string>> fields;
  void add(const std::string& key, const std::string& value) {
    fields.emplace_back(key, value);
  }
  std::string text() const;  // one "key value" line per field
};

struct Outcome {
  Fingerprint fingerprint;
  std::uint64_t offered = 0;    // messages handed to send_message
  std::uint64_t sent = 0;       // ... that the session accepted
  std::uint64_t delivered = 0;  // ... reconstructed at the responder
  /// Delivered messages whose bytes differ from what was offered.
  std::uint64_t corrupted = 0;
  /// Human-readable summary lines (printed, never gated).
  std::vector<std::string> summary;
};

struct SetupTimes {
  double env_ctor_s = 0;
  double env_start_s = 0;
  double sessions_s = 0;
  double total_s() const { return env_ctor_s + env_start_s + sessions_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the Environment, starts it and creates the sessions.
  virtual SetupTimes setup(const Instruments& instruments) = 0;
  /// Runs the simulation to the end of the batch.
  virtual void run() = 0;
  virtual Outcome outcome() const = 0;
  virtual p2panon::harness::Environment& environment() = 0;

  /// The (m, n, message size, count) mix of messages the batch sent, for
  /// the erasure and crypto cost estimates.
  struct MessageClass {
    std::size_t m = 1;
    std::size_t n = 1;
    std::size_t bytes = 0;
    std::uint64_t count = 0;
  };
  virtual std::vector<MessageClass> message_classes() const = 0;
};

bool is_workload(const std::string& name);
/// Throws std::invalid_argument for an unknown name or size.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& size,
                                        std::uint64_t seed);

/// paper_cell only: runs harness::run_durability_experiment on the same
/// config and returns its fingerprint, to prove the benchmark's own replay
/// reproduces the harness.
Fingerprint harness_reference(const std::string& size, std::uint64_t seed);

}  // namespace e2e
