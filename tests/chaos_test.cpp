// Chaos invariant harness: every named fault scenario must preserve the
// conservation, ledger, no-leak, and determinism invariants — in both the
// paper's fixed-timeout configuration and the adaptive RTO/backoff mode.
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/chaos_experiment.hpp"

namespace p2panon::harness {
namespace {

ChaosConfig small_chaos(ChaosScenario scenario, std::uint64_t seed,
                        bool adaptive) {
  ChaosConfig config;
  config.environment.num_nodes = 96;
  config.environment.seed = seed;
  config.scenario = scenario;
  config.warmup = 5 * kMinute;
  config.measure = 10 * kMinute;
  config.send_interval = 5 * kSecond;
  config.session.adaptive = adaptive;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

// The four invariants every scenario must uphold (see chaos_experiment.hpp).
void expect_invariants(const ChaosResult& result) {
  ASSERT_TRUE(result.constructed);
  ASSERT_GT(result.messages_accepted, 0u);
  // 1. Conservation: delivered or explainable, nothing vanishes.
  EXPECT_EQ(result.messages_unaccounted, 0u);
  EXPECT_EQ(result.messages_delivered + result.messages_failed,
            result.messages_accepted);
  // 2. The segment ledger closes.
  EXPECT_TRUE(result.ledger_closed())
      << "sent=" << result.segments_sent
      << " matched=" << result.acks_matched
      << " expired=" << result.segments_expired
      << " retransmitted=" << result.segments_retransmitted
      << " pending=" << result.leaked_pending_segments;
  // 3. No residual state anywhere after teardown + TTL sweep.
  EXPECT_EQ(result.leaked_pending_segments, 0u);
  EXPECT_EQ(result.leaked_path_state, 0u);
  EXPECT_EQ(result.leaked_pending_constructions, 0u);
  EXPECT_EQ(result.leaked_reverse_handlers, 0u);
  EXPECT_EQ(result.leaked_reassembly, 0u);
}

TEST(ChaosScenarioTest, FlashCrowdCrashHoldsInvariants) {
  for (const bool adaptive : {false, true}) {
    const auto result = run_chaos_experiment(
        small_chaos(ChaosScenario::kFlashCrowdCrash, 11, adaptive));
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    expect_invariants(result);
    // The crash wave actually bit: scripted crashes dropped datagrams.
    EXPECT_GT(result.faults.dropped_crash + result.drops.sender_dead +
                  result.drops.receiver_dead,
              0u);
  }
}

TEST(ChaosScenarioTest, RollingPartitionHoldsInvariants) {
  for (const bool adaptive : {false, true}) {
    const auto result = run_chaos_experiment(
        small_chaos(ChaosScenario::kRollingPartition, 12, adaptive));
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    expect_invariants(result);
    EXPECT_GT(result.faults.dropped_partition, 0u);
  }
}

TEST(ChaosScenarioTest, LossyLinkEpidemicHoldsInvariants) {
  for (const bool adaptive : {false, true}) {
    const auto result = run_chaos_experiment(
        small_chaos(ChaosScenario::kLossyLinkEpidemic, 13, adaptive));
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    expect_invariants(result);
    EXPECT_GT(result.faults.dropped_loss, 0u);
    EXPECT_GT(result.faults.delayed + result.faults.dropped_loss, 0u);
  }
}

TEST(ChaosScenarioTest, CorruptedRelayQuorumHoldsInvariants) {
  for (const bool adaptive : {false, true}) {
    auto config = small_chaos(ChaosScenario::kCorruptedRelayQuorum, 14, adaptive);
    // Construction through byzantine relays needs many attempts; give the
    // adaptive mode's backoff-paced attempt chain room to finish with a
    // send window left over.
    config.measure = 15 * kMinute;
    const auto result = run_chaos_experiment(config);
    SCOPED_TRACE(adaptive ? "adaptive" : "fixed");
    expect_invariants(result);
    // Byzantine flips happened and AEAD peels rejected them downstream.
    EXPECT_GT(result.faults.corrupted, 0u);
    EXPECT_GT(result.peel_failures, 0u);
  }
}

TEST(ChaosDeterminismTest, SameSeedSameFingerprint) {
  const auto config =
      small_chaos(ChaosScenario::kLossyLinkEpidemic, 21, /*adaptive=*/true);
  const auto first = run_chaos_experiment(config);
  const auto second = run_chaos_experiment(config);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

TEST(ChaosDeterminismTest, DifferentSeedsDiverge) {
  const auto a = run_chaos_experiment(
      small_chaos(ChaosScenario::kFlashCrowdCrash, 22, false));
  const auto b = run_chaos_experiment(
      small_chaos(ChaosScenario::kFlashCrowdCrash, 23, false));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// path_length comes from the environment and erasure/mix_choice from the
// spec; a value set on ChaosConfig::session would be silently replaced,
// so the harness refuses it before building anything.
TEST(ChaosConfigTest, RefusesSessionFieldsOwnedElsewhere) {
  auto config = small_chaos(ChaosScenario::kFlashCrowdCrash, 1, false);
  config.session.path_length = 5;
  EXPECT_THROW(run_chaos_experiment(config), std::invalid_argument);
  config = small_chaos(ChaosScenario::kFlashCrowdCrash, 1, false);
  config.session.erasure = anon::ErasureParams::simrep(2);
  EXPECT_THROW(run_chaos_experiment(config), std::invalid_argument);
  config = small_chaos(ChaosScenario::kFlashCrowdCrash, 1, false);
  config.session.mix_choice = anon::MixChoice::kBiased;
  EXPECT_THROW(run_chaos_experiment(config), std::invalid_argument);
}

// Redundancy ordering (paper's core claim, chaos edition): erasure coding
// >= replication >= single path, by delivered fraction. The claim is about
// *redundancy alone* masking in-flight losses, so the run uses the paper's
// static regime: no retransmission, no failure detection (the ack timeout
// outlasts the run), no path repair. Loss must also stay mild — per-segment
// end-to-end survival below ~0.68 provably inverts SimEra vs SimRep
// (needing m-of-n arrivals beats 1-of-r only when segments usually live).
TEST(ChaosProtocolTest, RedundancyOrderingUnderMildLoss) {
  auto config = small_chaos(ChaosScenario::kMildLossDrizzle, 31, false);
  config.session.auto_reconstruct = false;
  // All k paths up before sending.
  config.session.require_full_construction = true;
  config.session.ack_timeout = 2 * kHour;  // never fires within the run
  config.send_interval = 1 * kSecond; // ~500 i.i.d. message samples
  // Full provisioning can take minutes of top-up rounds; paths that were
  // established early must not have their relay state TTL-expire (§4.3)
  // while the stragglers finish, so the TTL must outlast the run.
  config.environment.router.state_ttl = 1 * kHour;

  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  const auto simera = run_chaos_experiment(config);
  config.spec = anon::ProtocolSpec::simrep(2, anon::MixChoice::kRandom);
  const auto simrep = run_chaos_experiment(config);
  config.spec = anon::ProtocolSpec::curmix(anon::MixChoice::kRandom);
  const auto curmix = run_chaos_experiment(config);

  expect_invariants(simera);
  expect_invariants(simrep);
  expect_invariants(curmix);
  EXPECT_GE(simera.attempted_delivery_rate(),
            simrep.attempted_delivery_rate());
  EXPECT_GE(simrep.attempted_delivery_rate(),
            curmix.attempted_delivery_rate());
}

// --- byzantine integrity ---------------------------------------------------
//
// The corruption-resilience acceptance criterion: with integrity on
// (segment auth tags + digest-validated decode), a run under byzantine
// relays delivers the EXACT bytes sent or fails closed — never fabricated
// bytes — at every swept per-datagram corruption probability, up to 0.5
// per hop.

ChaosConfig byzantine_chaos(double probability, std::uint64_t seed) {
  auto config =
      small_chaos(ChaosScenario::kCorruptedRelayQuorum, seed, false);
  config.measure = 15 * kMinute;  // byzantine construction is slow
  config.byzantine_probability = probability;
  config.session.integrity = true;
  return config;
}

TEST(ChaosByzantineTest, FailsClosedNeverWrongAtEverySweptRate) {
  std::uint64_t total_rejected = 0;
  std::uint64_t total_verified = 0;
  for (const double probability : {0.10, 0.25, 0.50}) {
    SCOPED_TRACE(probability);
    const auto result = run_chaos_experiment(byzantine_chaos(probability, 51));
    expect_invariants(result);
    // Never wrong bytes: every delivery scored against the sent payload.
    EXPECT_EQ(result.messages_delivered_wrong, 0u);
    EXPECT_EQ(result.messages_delivered_correct, result.messages_delivered);
    total_rejected += result.auth_rejected;
    total_verified += result.auth_verified;
  }
  // The defense was actually exercised: segments were tag-verified on the
  // happy path and corrupted ones were rejected somewhere in the sweep.
  EXPECT_GT(total_verified, 0u);
  EXPECT_GT(total_rejected, 0u);
}

// Without the auth trailer the same schedule is a hazard: FastOnionCodec
// has no integrity, so at least one corrupted reconstruction survives to
// the application as wrong bytes. This is the baseline the tentpole
// removes (and proof the fail-closed test above is non-vacuous).
TEST(ChaosByzantineTest, BaselineWithoutTagsDeliversWrongBytes) {
  std::uint64_t wrong = 0;
  for (const std::uint64_t seed : {51, 52, 53}) {
    auto config = byzantine_chaos(0.25, seed);
    config.session.integrity = false;
    const auto result = run_chaos_experiment(config);
    expect_invariants(result);
    wrong += result.messages_delivered_wrong;
  }
  EXPECT_GT(wrong, 0u);
}

// Relay suspicion must convert the responder's corruption verdicts into
// routing pressure: evidence is filed, the byzantine quorum accrues
// suspicion, and rebuilt paths avoid it — recovering deliveries the
// tags-only run loses, never at the cost of integrity.
TEST(ChaosByzantineTest, SuspicionBiasedRecoversDeliveries) {
  const auto tags_only = run_chaos_experiment(byzantine_chaos(0.25, 54));

  auto config = byzantine_chaos(0.25, 54);
  config.session.relay_suspicion = true;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kBiased);
  const auto suspicion = run_chaos_experiment(config);

  expect_invariants(tags_only);
  expect_invariants(suspicion);
  EXPECT_EQ(suspicion.messages_delivered_wrong, 0u);
  EXPECT_GT(suspicion.suspicion_reports, 0u);
  EXPECT_GE(suspicion.correct_rate(), tags_only.correct_rate());
}

TEST(ChaosByzantineTest, AuthRunIsDeterministic) {
  auto config = byzantine_chaos(0.5, 55);
  config.session.relay_suspicion = true;
  const auto first = run_chaos_experiment(config);
  const auto second = run_chaos_experiment(config);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

// Adaptive RTO + backoff must help when links are lossy rather than dead:
// retransmission recovers individual losses that the fixed configuration
// turns into path teardowns. Compared on the attempted-delivery ratio —
// delivered / tried-to-send — because the fixed mode also refuses sends
// while its paths are torn down, which a per-accepted ratio would reward.
TEST(ChaosAdaptiveTest, AdaptiveBeatsFixedUnderLoss) {
  const auto fixed = run_chaos_experiment(
      small_chaos(ChaosScenario::kLossyLinkEpidemic, 41, false));
  const auto adaptive = run_chaos_experiment(
      small_chaos(ChaosScenario::kLossyLinkEpidemic, 41, true));
  expect_invariants(fixed);
  expect_invariants(adaptive);
  EXPECT_GT(adaptive.attempted_delivery_rate(),
            fixed.attempted_delivery_rate());
}

// --- per-arm pins ------------------------------------------------------------
//
// One tiny run of every hardening arm the chaos_sweep grids run, pinned to
// its exact outcome. The strings were captured before the hardening knobs
// were folded into one switch per arm; any refactor of the switches must
// reproduce them byte for byte. Overload arms also pin the overload
// accounting that fingerprint() leaves out.

ChaosConfig pin_base(ChaosScenario scenario, std::uint64_t seed) {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = seed;
  config.scenario = scenario;
  config.warmup = 5 * kMinute;
  config.measure = 6 * kMinute;
  config.send_interval = 10 * kSecond;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

std::string overload_pin(const ChaosResult& r) {
  std::string out = r.fingerprint();
  for (const auto& cls : r.per_class) {
    out += "|" + std::to_string(cls.attempts) + "/" +
           std::to_string(cls.accepted) + "/" + std::to_string(cls.delivered);
  }
  for (const std::uint64_t v :
       {r.interactive_p50_us, r.interactive_p99_us, r.relay_sheds_bulk,
        r.relay_sheds_streaming, r.relay_sheds_interactive,
        r.relay_sheds_control, r.admission_rejects, r.backpressure_signals,
        r.session_messages_shed, r.session_segments_deferred,
        r.session_backpressure_rx, r.session_stalls_suppressed}) {
    out += ":" + std::to_string(v);
  }
  return out;
}

TEST(ChaosArmPinTest, ScenarioFixedAndAdaptive) {
  auto config = pin_base(ChaosScenario::kLossyLinkEpidemic, 5);
  EXPECT_EQ(run_chaos_experiment(config).fingerprint(),
            "1:10:32:16:12:4:0:46:39:1:6:7:152:0:0:0:0:0:0:0:856:0:0:0:0:13"
            "5:0:0:0:4:47269:12:0:0:0:0:0:0");
  config.session.adaptive = true;
  EXPECT_EQ(run_chaos_experiment(config).fingerprint(),
            "1:10:28:14:11:3:0:50:28:6:16:22:73:0:0:0:0:0:0:0:842:0:0:0:0:8"
            "4:0:0:0:3:47079:11:0:0:0:0:0:0");
}

TEST(ChaosArmPinTest, ByzantineOffTagsSuspicion) {
  auto config = pin_base(ChaosScenario::kCorruptedRelayQuorum, 6);
  config.measure = 8 * kMinute;
  config.byzantine_probability = 0.25;
  EXPECT_EQ(run_chaos_experiment(config).fingerprint(),
            "1:6:46:46:46:0:0:92:92:0:0:0:0:0:0:0:0:0:0:0:0:0:0:10:0:20:0:0"
            ":0:0:52747:38:8:0:0:0:0:0");
  config.session.integrity = true;
  EXPECT_EQ(run_chaos_experiment(config).fingerprint(),
            "1:6:46:46:46:0:0:100:92:0:8:0:0:0:0:0:0:0:0:0:0:0:0:10:0:20:0:"
            "0:0:0:52811:46:0:92:8:8:0:0");
  config.session.relay_suspicion = true;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kBiased);
  EXPECT_EQ(run_chaos_experiment(config).fingerprint(),
            "1:1:48:48:48:0:0:210:192:0:18:0:1:0:0:0:0:0:0:0:0:0:0:23:0:0:0"
            ":0:0:0:53639:48:0:192:18:18:54:3");
}

TEST(ChaosArmPinTest, OverloadShedAndDrop) {
  auto config = pin_base(ChaosScenario::kMildLossDrizzle, 1);
  config.measure = 8 * kMinute;
  config.session.adaptive = true;
  config.session.path_fail_threshold = 40;
  config.workload.enabled = true;
  config.workload.shape = workload::LoadShape::kFlashCrowd;
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload.enabled = true;
  config.environment.router.overload.relay_queue_capacity = 64;
  config.environment.router.overload.drain_rate_per_s = 10.0;
  EXPECT_EQ(overload_pin(run_chaos_experiment(config)),
            "1:15:2264:2060:1183:877:0:13116:2865:852:9399:9810:19:0:0:0:0:"
            "0:0:0:2466:0:0:0:0:63:0:0:0:651:107456:1183:0:0:0:0:0:0|545/50"
            "0/297|1152/1048/591|567/512/295:819769:59796969:1799:1883:3827"
            ":0:0:0:0:0:0:0");
  config.environment.router.overload.shed = true;
  config.session.max_inflight_segments = 256;
  EXPECT_EQ(overload_pin(run_chaos_experiment(config)),
            "1:15:2264:1748:1524:224:0:9047:3069:245:5733:5978:0:0:0:0:0:0:"
            "0:0:2675:0:0:0:0:50:0:0:0:63:107503:1524:0:0:0:0:0:0|545/330/2"
            "29|1152/961/959|567/457/336:281621:34711919:82:2107:576:0:0:27"
            "65:516:182:2617:3869");
}

// --- composition -------------------------------------------------------------
//
// Every hardening profile on at once — integrity, relay suspicion, adaptive
// timeouts, the bounded send queue and relay shedding — under byzantine
// relays and a flash crowd. Each profile was tuned against all-off; run
// together, the suspicion stall evidence meets backpressure holds and
// corruption nacks meet relay sheds. The chaos invariants must still hold,
// and the exact outcome is pinned like the per-arm runs above.
TEST(ChaosCompositionTest, AllProfilesTogetherHoldInvariants) {
  auto config = pin_base(ChaosScenario::kCorruptedRelayQuorum, 1);
  config.measure = 8 * kMinute;
  config.byzantine_probability = 0.25;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kBiased);
  // As in the overload sweep: retransmission, not rebuild churn, absorbs
  // the loss, so offered load and corruption stay the stressors.
  config.session.path_fail_threshold = 40;
  config.workload.enabled = true;
  config.workload.shape = workload::LoadShape::kFlashCrowd;
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload.enabled = true;
  config.environment.router.overload.relay_queue_capacity = 64;
  config.environment.router.overload.drain_rate_per_s = 10.0;
  config.session.adaptive = true;
  config.session.integrity = true;
  config.session.relay_suspicion = true;
  config.environment.router.overload.shed = true;
  config.session.max_inflight_segments = 256;
  const auto result = run_chaos_experiment(config);
  EXPECT_EQ(overload_pin(result),
            "1:1:2953:2173:1578:595:0:9327:5017:157:4153:4245:107:0:0:0:0:0"
            ":0:0:0:0:0:881:0:98:0:0:1635:492:117354:1578:0:5469:69:69:3795"
            ":24|736/453/271|1457/1131/937|760/589/370:1718472:36087912:71:"
            "1671:412:0:0:2154:780:132:2154:3046");

  expect_invariants(result);
  EXPECT_EQ(result.relay_sheds_control, 0u);
  EXPECT_EQ(result.messages_delivered_wrong, 0u);
  // Every profile was exercised, not merely switched on.
  EXPECT_GT(result.auth_rejected, 0u);
  EXPECT_GT(result.suspicion_reports, 0u);
  EXPECT_GT(result.segments_retransmitted, 0u);
  EXPECT_GT(result.relay_sheds_bulk + result.relay_sheds_streaming +
                result.relay_sheds_interactive,
            0u);
  EXPECT_GT(result.session_stalls_suppressed, 0u);
}

}  // namespace
}  // namespace p2panon::harness
