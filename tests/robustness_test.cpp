// Robustness and adversarial-input tests: junk bytes into every wire
// parser and router handler, replayed and tampered relay traffic, and a
// randomized reference-model check of the event queue.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "anon/onion.hpp"
#include "anon/protocols.hpp"
#include "anon/rendezvous.hpp"
#include "anon/router.hpp"
#include "anon/session.hpp"
#include "crypto/segment_auth.hpp"
#include "membership/gossip.hpp"
#include "membership/node_cache.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/loopback_transport.hpp"
#include "net/sim_transport.hpp"
#include "harness/environment.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace p2panon {
namespace {

// --- parser fuzzing ---------------------------------------------------------------

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  rng.fill(out.data(), out.size());
  return out;
}

TEST(ParserFuzzTest, PathHopSurvivesJunk) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    EXPECT_NO_THROW({ auto r = anon::parse_path_hop(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, PayloadCoreSurvivesJunk) {
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 300);
    EXPECT_NO_THROW({ auto r = anon::parse_payload_core(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, ReverseCoreSurvivesJunk) {
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 300);
    EXPECT_NO_THROW({ auto r = anon::parse_reverse_core(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, RendezvousFrameSurvivesJunk) {
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 100);
    EXPECT_NO_THROW({ auto r = anon::parse_frame(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, GossipRecordsSurviveJunk) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    std::vector<membership::DecodedRecord> out;
    EXPECT_NO_THROW(membership::decode_records(
        junk, 0, junk.empty() ? 0 : junk[0], out));
  }
}

TEST(ParserFuzzTest, ByteReadsNearSizeMaxThrowInsteadOfWrapping) {
  // offset + n wraps past zero for these offsets; the range check must
  // still see the read as past the end.
  const Bytes buffer(16, 0xab);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(get_u16be(buffer, kMax - 1), std::out_of_range);
  EXPECT_THROW(get_u32be(buffer, kMax - 2), std::out_of_range);
  EXPECT_THROW(get_u64be(buffer, kMax), std::out_of_range);
  EXPECT_THROW(get_u64be(buffer, kMax - 7), std::out_of_range);
  EXPECT_EQ(get_u64be(buffer, 8), 0xababababababababULL);
  EXPECT_THROW(get_u64be(buffer, 9), std::out_of_range);
}

TEST(ParserFuzzTest, GossipRecordCountThatWrapsIsRejected) {
  // count * kRecordWireSize wraps to 5 for this count, which a short
  // buffer would satisfy; decode must report truncation, not throw.
  const Bytes buffer(64, 0x11);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::size_t count = kMax / membership::kRecordWireSize + 1;
  std::vector<membership::DecodedRecord> out;
  bool ok = true;
  EXPECT_NO_THROW(ok = membership::decode_records(buffer, 0, count, out));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(membership::decode_records(buffer, kMax, 1, out));
  EXPECT_FALSE(membership::decode_records(buffer, kMax - 4, 1, out));
  EXPECT_TRUE(membership::decode_records(buffer, 1, 3, out));
  EXPECT_EQ(out.size(), 3u);
}

TEST(ParserFuzzTest, BitFlippedValidStructuresParseOrRejectCleanly) {
  // Take valid serialized structures and flip each byte: the parser must
  // either reject or produce a structurally valid result, never crash.
  anon::PayloadCore core;
  core.message_id = 7;
  core.segment = Bytes(64, 0x3c);
  Bytes plain = anon::serialize_payload_core(core);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    Bytes mutated = plain;
    mutated[i] ^= 0xff;
    EXPECT_NO_THROW({ auto r = anon::parse_payload_core(mutated); (void)r; });
  }
}

/// A valid tagged payload core: the tag is computed exactly as the
/// initiator's session does, so verify_tag() holds on the original.
anon::PayloadCore tagged_core() {
  anon::PayloadCore core;
  core.message_id = 0x5eed;
  core.segment_index = 1;
  core.original_size = 100;
  core.needed_segments = 2;
  core.total_segments = 4;
  core.segment = Bytes(50, 0x6b);
  core.responder_key[0] = 0x42;
  core.auth_flags = anon::PayloadCore::kAuthTagged;
  const Bytes message(100, 0x6b);
  core.message_digest = crypto::message_digest(message);
  core.auth_tag = crypto::segment_tag(
      crypto::derive_segment_auth_key(core.responder_key), core.message_id,
      core.segment_index, core.original_size, core.needed_segments,
      core.total_segments, core.message_digest, core.segment);
  return core;
}

/// The responder's check: the tag keyed from the core's own R_{L+1}.
bool verify_tag(const anon::PayloadCore& core) {
  return crypto::segment_tag_equal(
      crypto::segment_tag(crypto::derive_segment_auth_key(core.responder_key),
                          core.message_id, core.segment_index,
                          core.original_size, core.needed_segments,
                          core.total_segments, core.message_digest,
                          core.segment),
      core.auth_tag);
}

TEST(ParserFuzzTest, MutatedAuthTrailerParsesOrRejectsButNeverVerifies) {
  // Seeded mutations of a valid tagged core, aimed at the trailer: byte
  // flips, truncation and extension. Each mutant must parse or reject
  // without throwing, and a mutant that parses with any altered trailer
  // byte must fail the responder's tag check.
  const anon::PayloadCore original = tagged_core();
  ASSERT_TRUE(verify_tag(original));
  const Bytes plain = anon::serialize_payload_core(original);
  const std::size_t trailer_at = plain.size() - 33;
  Rng rng(6);
  std::size_t parsed_mutants = 0;
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = plain;
    switch (rng.next_below(3)) {
      case 0: {  // flip 1-3 trailer bytes
        const std::size_t flips = 1 + rng.next_below(3);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = trailer_at + rng.next_below(33);
          mutated[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
      }
      case 1:  // truncate into the trailer
        mutated.resize(trailer_at + rng.next_below(33));
        break;
      default: {  // extend past it
        const Bytes tail = random_bytes(rng, 40);
        mutated.insert(mutated.end(), tail.begin(), tail.end());
        break;
      }
    }
    std::optional<anon::PayloadCore> parsed;
    EXPECT_NO_THROW(parsed = anon::parse_payload_core(mutated));
    if (!parsed.has_value() || mutated == plain) continue;
    ++parsed_mutants;
    EXPECT_FALSE(parsed->auth_flags == anon::PayloadCore::kAuthTagged &&
                 verify_tag(*parsed))
        << "mutant " << i << " forged a valid tag";
  }
  EXPECT_GT(parsed_mutants, 0u);  // the flips reached the verifier
}

// --- router under hostile traffic ---------------------------------------------------

struct HostileFixture {
  static constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(10));
  net::SimTransport transport{simulator, latency, [](NodeId) { return true; }};
  net::Demux demux{transport, kNodes};
  crypto::KeyDirectory directory;
  anon::RealOnionCodec onion;
  std::unique_ptr<anon::AnonRouter> router;
  membership::NodeCache cache{kNodes};
  Rng rng{11};

  HostileFixture() {
    Rng key_rng(12);
    auto keys = directory.provision(kNodes, key_rng);
    router = std::make_unique<anon::AnonRouter>(
        simulator, demux, onion, directory, std::move(keys),
        [](NodeId) { return true; }, anon::RouterConfig{}, rng.fork());
    router->start();
    for (NodeId node = 0; node < kNodes; ++node) {
      cache.heard_directly(node, 100 * kSecond, 0);
    }
  }
};

TEST(HostileTrafficTest, RouterIgnoresGarbageDatagrams) {
  HostileFixture fx;
  Rng rng(13);
  // Blast random bytes at both anon channels from random senders.
  for (int i = 0; i < 2000; ++i) {
    const auto from = static_cast<NodeId>(rng.next_below(16));
    const auto to = static_cast<NodeId>(rng.next_below(16));
    const auto channel = rng.bernoulli(0.5) ? net::Channel::kAnonForward
                                            : net::Channel::kAnonReverse;
    fx.demux.send(channel, from, to, random_bytes(rng, 400));
  }
  // run_until, not run(): the router's TTL sweeper reschedules itself
  // forever, so draining "until idle" never returns.
  EXPECT_NO_THROW(fx.simulator.run_until(fx.simulator.now() + kMinute));
  // And the router still works afterwards.
  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  anon::Session session(*fx.router, fx.cache, 0, 1, config, Rng(14));
  bool delivered = false;
  fx.router->set_message_handler(
      [&](const anon::ReceivedMessage&) { delivered = true; });
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  session.send_message(bytes_of("still alive"));
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  EXPECT_TRUE(delivered);
}

// The plain backpressure frame ([type=8][sid:8][class:1], reverse channel)
// carries no authentication: any node can send one. Seeded mutations of it —
// real and random sids, every class byte, truncated and padded lengths —
// aimed at the initiator and at every relay must be absorbed without a
// throw, and the session must keep delivering afterwards.
TEST(HostileTrafficTest, MutatedBackpressureFramesAreAbsorbed) {
  HostileFixture fx;
  anon::SessionConfig config =
      anon::ProtocolSpec::simera(2, 2, anon::MixChoice::kRandom)
          .session_config({});
  config.max_inflight_segments = 64;  // the backpressure reaction is on
  anon::Session session(*fx.router, fx.cache, 0, 1, config, Rng(15));
  std::size_t delivered = 0;
  fx.router->set_message_handler(
      [&](const anon::ReceivedMessage&) { ++delivered; });
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  ASSERT_TRUE(session.ready());

  std::vector<StreamId> sids;
  for (const auto& info : session.paths()) sids.push_back(info.sid);
  Rng rng(16);
  std::size_t aimed = 0;
  for (int i = 0; i < 3000; ++i) {
    Bytes frame;
    frame.push_back(8);
    const bool real = rng.bernoulli(0.5);
    put_u64be(frame, real ? sids[rng.next_below(sids.size())]
                          : rng.next_u64());
    frame.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    switch (rng.next_below(4)) {
      case 0: frame.resize(rng.next_below(frame.size())); break;
      case 1: {
        const Bytes tail = random_bytes(rng, 16);
        frame.insert(frame.end(), tail.begin(), tail.end());
        break;
      }
      default: break;
    }
    // Half aim at the initiator (node 0), half at random relays.
    const auto to = rng.bernoulli(0.5)
                        ? NodeId{0}
                        : static_cast<NodeId>(rng.next_below(16));
    if (to == 0 && real && frame.size() >= 10) ++aimed;
    fx.demux.send(net::Channel::kAnonReverse,
                  static_cast<NodeId>(rng.next_below(16)), to,
                  std::move(frame));
  }
  EXPECT_NO_THROW(fx.simulator.run_until(fx.simulator.now() + kMinute));
  // Frames naming a live path reached the session; the rest were dropped.
  EXPECT_GT(session.backpressure_signals(), 0u);
  EXPECT_LE(session.backpressure_signals(), aimed);

  // Congestion holds only defer bulk; an interactive send still gets
  // through once the holds lapse.
  ASSERT_NE(session.send_message(bytes_of("after the storm")), 0u);
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  EXPECT_EQ(delivered, 1u);
}

// Transport decorator that records every datagram so tests can replay
// captured traffic like an on-path attacker.
class CapturingTransport final : public net::Transport {
 public:
  explicit CapturingTransport(net::Transport& inner) : inner_(inner) {}

  void send(NodeId from, NodeId to, Bytes payload) override {
    captured_.push_back({from, to, payload});
    inner_.send(from, to, std::move(payload));
  }
  void register_handler(NodeId node, Handler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }

  struct Datagram {
    NodeId from;
    NodeId to;
    Bytes payload;
  };
  const std::vector<Datagram>& captured() const { return captured_; }
  void replay(const Datagram& datagram) {
    inner_.send(datagram.from, datagram.to, datagram.payload);
  }

 private:
  net::Transport& inner_;
  std::vector<Datagram> captured_;
};

TEST(HostileTrafficTest, ReplayedSegmentDeliversMessageOnlyOnce) {
  sim::Simulator simulator;
  const auto latency = net::LatencyMatrix::synthetic(16, Rng(30));
  net::SimTransport base(simulator, latency, [](NodeId) { return true; });
  CapturingTransport transport(base);
  net::Demux demux(transport, 16);
  crypto::KeyDirectory directory;
  Rng key_rng(31);
  auto keys = directory.provision(16, key_rng);
  anon::RealOnionCodec onion;
  anon::AnonRouter router(simulator, demux, onion, directory,
                          std::move(keys), [](NodeId) { return true; },
                          anon::RouterConfig{}, Rng(32));
  router.start();
  membership::NodeCache cache(16);
  for (NodeId node = 0; node < 16; ++node) {
    cache.heard_directly(node, 100 * kSecond, 0);
  }

  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  anon::Session session(router, cache, 0, 1, config, Rng(33));

  std::size_t reconstructions = 0;
  router.set_message_handler(
      [&](const anon::ReceivedMessage&) { ++reconstructions; });

  session.construct([&](bool, std::size_t) {});
  simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());
  const std::size_t before_payload = transport.captured().size();
  session.send_message(bytes_of("replay me"));
  simulator.run_until(20 * kSecond);
  ASSERT_EQ(reconstructions, 1u);

  // Replay every datagram the payload exchange produced, twice.
  const std::vector<CapturingTransport::Datagram> snapshot(
      transport.captured().begin() + static_cast<long>(before_payload),
      transport.captured().end());
  for (int round = 0; round < 2; ++round) {
    for (const auto& datagram : snapshot) transport.replay(datagram);
  }
  simulator.run_until(40 * kSecond);
  // The responder deduplicates by (message id, segment index): the message
  // is reconstructed exactly once no matter how often it is replayed.
  EXPECT_EQ(reconstructions, 1u);
}

TEST(HostileTrafficTest, GossipChannelJunkDoesNotPoisonCaches) {
  sim::Simulator simulator;
  const std::size_t n = 32;
  auto latency = net::LatencyMatrix::synthetic(n, Rng(16));
  churn::ExponentialLifetime dist(1e9);
  churn::ChurnModel churn_model(simulator, n, dist, Rng(17), 1.0);
  net::SimTransport transport(simulator, latency,
                              [&](NodeId id) { return churn_model.is_up(id); });
  net::Demux demux(transport, n);
  membership::GossipMembership gossip(simulator, demux, churn_model,
                                      membership::GossipConfig{}, Rng(18));
  gossip.start();
  churn_model.start();

  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    demux.send(net::Channel::kGossip,
               static_cast<NodeId>(rng.next_below(n)),
               static_cast<NodeId>(rng.next_below(n)),
               random_bytes(rng, 300));
  }
  EXPECT_NO_THROW(simulator.run_until(2 * kMinute));
  // With no churn, everyone should still (correctly) believe everyone is
  // alive; junk must not have marked nodes dead.
  EXPECT_GT(gossip.belief_accuracy(), 0.99);
}

// --- event queue vs reference model ---------------------------------------------------

TEST(EventQueueModelTest, MatchesMultimapReference) {
  sim::EventQueue queue;
  std::multimap<SimTime, int> reference;
  std::map<int, sim::EventId> live_ids;
  Rng rng(20);
  int next_tag = 0;
  std::vector<int> popped_queue;
  std::vector<int> popped_reference;

  for (int op = 0; op < 20000; ++op) {
    const auto choice = rng.next_below(100);
    if (choice < 55 || queue.empty()) {
      const auto when = static_cast<SimTime>(rng.next_below(1000));
      const int tag = next_tag++;
      live_ids[tag] = queue.schedule(when, [] {});
      reference.emplace(when, tag);
    } else if (choice < 75 && !live_ids.empty()) {
      // Cancel a random live event.
      auto it = live_ids.begin();
      std::advance(it, static_cast<long>(rng.next_below(live_ids.size())));
      ASSERT_TRUE(queue.cancel(it->second));
      for (auto rit = reference.begin(); rit != reference.end(); ++rit) {
        if (rit->second == it->first) {
          reference.erase(rit);
          break;
        }
      }
      live_ids.erase(it);
    } else {
      // Pop: times must match; among equal times the queue pops in
      // schedule order, which the multimap preserves for equal keys.
      const auto ready = queue.pop();
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(ready.time, reference.begin()->first);
      // Find and erase the matching tag (first inserted at that time).
      const int tag = reference.begin()->second;
      reference.erase(reference.begin());
      live_ids.erase(tag);
      popped_queue.push_back(tag);
      popped_reference.push_back(tag);
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
}

// --- whole-environment determinism -----------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalSimulations) {
  auto run = [](std::uint64_t seed) {
    harness::EnvironmentConfig config;
    config.num_nodes = 64;
    config.seed = seed;
    harness::Environment env(config);
    env.start();
    env.simulator().run_until(10 * kMinute);
    return std::make_tuple(env.simulator().executed_events(),
                           env.membership().messages_sent(),
                           env.membership().bytes_sent(),
                           env.churn().total_transitions(),
                           env.transport().bytes_sent());
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(std::get<4>(run(77)), std::get<4>(run(78)));
}

// --- self-healing: ack timeout -> failure detection -> rebuild --------------------

TEST(RebuildPathTest, AckTimeoutTriggersRebuildAndResend) {
  constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;
  net::LoopbackTransport transport(kNodes);
  net::Demux demux(transport, kNodes);
  crypto::KeyDirectory directory;
  anon::RealOnionCodec onion;
  Rng key_rng(71);
  auto keys = directory.provision(kNodes, key_rng);
  anon::AnonRouter router(simulator, demux, onion, directory, std::move(keys),
                          [&](NodeId node) { return transport.is_up(node); },
                          anon::RouterConfig{}, Rng(72));
  router.start();
  membership::NodeCache cache(kNodes);
  for (NodeId node = 0; node < kNodes; ++node) {
    cache.heard_directly(node, 100 * kSecond, 0);
  }

  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  config.auto_reconstruct = true;
  anon::Session session(router, cache, 0, 1, config, Rng(73));

  std::size_t failures_seen = 0;
  session.set_path_failure_handler([&](std::size_t) { ++failures_seen; });
  bool delivered = false;
  router.set_message_handler([&](const anon::ReceivedMessage& msg) {
    if (msg.responder == 1) delivered = true;
  });

  // Loopback delivery is manual while simulator timers drive timeouts, so
  // interleave short timer steps with queue drains.
  const auto pump = [&](SimDuration duration) {
    const SimTime deadline = simulator.now() + duration;
    while (simulator.now() < deadline) {
      transport.deliver_all();
      simulator.run_until(
          std::min(deadline, simulator.now() + 100 * kMillisecond));
    }
    transport.deliver_all();
  };

  bool constructed = false;
  session.construct([&](bool ok, std::size_t) { constructed = ok; });
  pump(10 * kSecond);
  ASSERT_TRUE(constructed);
  ASSERT_EQ(session.established_paths(), 1u);

  // Kill a middle relay: the next segment's end-to-end ack cannot return,
  // so the ack timeout must declare the path failed and rebuild it.
  const NodeId victim = session.paths()[0].relays[1];
  transport.set_up(victim, false);
  ASSERT_NE(session.send_message(bytes_of("through a dead relay")), 0u);

  // Long enough for detection (5 s ack timeout) plus rebuild retries that
  // happen to re-pick the dead relay (5 s construct timeout each).
  pump(2 * kMinute);

  EXPECT_GE(session.path_failures_detected(), 1u);
  EXPECT_GE(failures_seen, 1u);
  std::uint64_t rebuilds = 0;
  for (const auto& info : session.paths()) rebuilds += info.rebuilds;
  EXPECT_GE(rebuilds, 1u);
  // The kept segment was resent over the rebuilt path and delivered.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(session.established_paths(), 1u);
}

}  // namespace
}  // namespace p2panon
