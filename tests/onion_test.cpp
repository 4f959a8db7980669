// Tests for onion construction/stripping, both codecs, and the guarantee
// that the fast codec is byte-size-identical to the real one.
#include <gtest/gtest.h>

#include "anon/buffer_pool.hpp"
#include "anon/onion.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"

namespace p2panon::anon {
namespace {

struct CodecFixture {
  Rng rng{77};
  crypto::KeyDirectory directory;
  std::vector<crypto::KeyPair> keys;

  CodecFixture() { keys = directory.provision(8, rng); }

  std::vector<RelayKey> relay_keys(std::size_t count) {
    std::vector<RelayKey> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(crypto::random_symmetric_key(rng));
    }
    return out;
  }
};

class OnionCodecTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<OnionCodec> make_codec() const {
    if (GetParam()) return std::make_unique<RealOnionCodec>();
    return std::make_unique<FastOnionCodec>();
  }
};

TEST_P(OnionCodecTest, PathOnionPeelsHopByHop) {
  CodecFixture fx;
  const auto codec = make_codec();
  const std::vector<NodeId> relays = {2, 4, 6};
  const auto keys = fx.relay_keys(3);
  Bytes onion =
      codec->build_path_onion(relays, keys, 7, fx.directory, fx.rng);

  // Relay 2 peels first.
  auto peel1 = codec->peel_path_onion(fx.keys[2], onion);
  ASSERT_TRUE(peel1.has_value());
  EXPECT_EQ(peel1->hop.next, 4u);
  EXPECT_FALSE(peel1->hop.last);
  EXPECT_EQ(peel1->hop.relay_key, keys[0]);

  auto peel2 = codec->peel_path_onion(fx.keys[4], peel1->rest);
  ASSERT_TRUE(peel2.has_value());
  EXPECT_EQ(peel2->hop.next, 6u);
  EXPECT_FALSE(peel2->hop.last);

  auto peel3 = codec->peel_path_onion(fx.keys[6], peel2->rest);
  ASSERT_TRUE(peel3.has_value());
  EXPECT_EQ(peel3->hop.next, 7u);  // the responder
  EXPECT_TRUE(peel3->hop.last);
  EXPECT_TRUE(peel3->rest.empty());
}

TEST_P(OnionCodecTest, SingleRelayPath) {
  CodecFixture fx;
  const auto codec = make_codec();
  const auto keys = fx.relay_keys(1);
  Bytes onion = codec->build_path_onion({3}, keys, 5, fx.directory, fx.rng);
  auto peeled = codec->peel_path_onion(fx.keys[3], onion);
  ASSERT_TRUE(peeled.has_value());
  EXPECT_EQ(peeled->hop.next, 5u);
  EXPECT_TRUE(peeled->hop.last);
}

TEST_P(OnionCodecTest, PayloadCoreRoundTrip) {
  CodecFixture fx;
  const auto codec = make_codec();
  PayloadCore core;
  core.message_id = 0xdeadbeefcafef00dULL;
  core.segment_index = 3;
  core.original_size = 1024;
  core.needed_segments = 2;
  core.total_segments = 8;
  core.segment = Bytes(512, 0x5a);
  core.responder_key = crypto::random_symmetric_key(fx.rng);

  const Bytes sealed =
      codec->seal_payload_core(core, fx.keys[5].public_key, fx.rng);
  const auto opened = codec->open_payload_core(fx.keys[5], sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->message_id, core.message_id);
  EXPECT_EQ(opened->segment_index, core.segment_index);
  EXPECT_EQ(opened->original_size, core.original_size);
  EXPECT_EQ(opened->needed_segments, core.needed_segments);
  EXPECT_EQ(opened->total_segments, core.total_segments);
  EXPECT_EQ(opened->segment, core.segment);
  EXPECT_EQ(opened->responder_key, core.responder_key);
}

TEST_P(OnionCodecTest, LayerWrapUnwrapRoundTrip) {
  CodecFixture fx;
  const auto codec = make_codec();
  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  const Bytes inner = bytes_of("payload through the mix");
  const Bytes outer = codec->wrap_layer(key, 9, inner);
  EXPECT_EQ(outer.size(), inner.size() + codec->layer_overhead());
  const auto unwrapped = codec->unwrap_layer(key, 9, outer);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(*unwrapped, inner);
}

TEST_P(OnionCodecTest, NestedLayersStripInOrder) {
  CodecFixture fx;
  const auto codec = make_codec();
  const auto keys = fx.relay_keys(3);
  const Bytes core = bytes_of("innermost");
  Bytes blob = core;
  for (std::size_t i = keys.size(); i-- > 0;) {
    blob = codec->wrap_layer(keys[i], 4, blob);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto inner = codec->unwrap_layer(keys[i], 4, blob);
    ASSERT_TRUE(inner.has_value());
    blob = std::move(*inner);
  }
  EXPECT_EQ(blob, core);
}

// The in-place wrap/unwrap forms are the relay fast path; they must be
// byte-identical to the allocating forms for both codecs.
TEST_P(OnionCodecTest, InPlaceFormsMatchAllocatingForms) {
  CodecFixture fx;
  const auto codec = make_codec();
  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  for (const std::size_t len : {0u, 1u, 64u, 1024u, 8192u}) {
    Bytes inner(len);
    fx.rng.fill(inner.data(), inner.size());
    const Bytes outer = codec->wrap_layer(key, 11, inner);
    Bytes buf = inner;
    codec->wrap_layer_in_place(key, 11, buf);
    EXPECT_EQ(buf, outer) << "len=" << len;
    ASSERT_TRUE(codec->unwrap_layer_in_place(key, 11, buf));
    EXPECT_EQ(buf, inner) << "len=" << len;
  }
  // Tamper and truncation still fail through the in-place path (Real only;
  // the Fast codec is deliberately unauthenticated).
  if (GetParam()) {
    Bytes buf = bytes_of("segment");
    codec->wrap_layer_in_place(key, 12, buf);
    Bytes tampered = buf;
    tampered[1] ^= 0x10;
    EXPECT_FALSE(codec->unwrap_layer_in_place(key, 12, tampered));
    Bytes wrong_seq = buf;
    EXPECT_FALSE(codec->unwrap_layer_in_place(key, 13, wrong_seq));
  }
  Bytes tiny(codec->layer_overhead() - 1);
  EXPECT_FALSE(codec->unwrap_layer_in_place(key, 12, tiny));
}

INSTANTIATE_TEST_SUITE_P(RealAndFast, OnionCodecTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Real" : "Fast";
                         });

// --- Zero-allocation relay path ----------------------------------------------------

// Steady-state relaying (acquire pooled buffer, peel or wrap a layer in
// place) must perform zero heap allocations per segment. onion_test links
// the strong alloc_probe hooks, so allocations() counts operator new for
// the whole binary.
TEST(ZeroAllocRelayTest, PooledInPlaceRelayPathDoesNotAllocate) {
  ASSERT_TRUE(alloc_probe::active())
      << "alloc_probe_hooks.cpp must be linked into onion_test";
  Rng rng(99);
  RealOnionCodec codec;
  const RelayKey key = crypto::random_symmetric_key(rng);
  BufferPool pool;
  Bytes segment(8192);
  rng.fill(segment.data(), segment.size());
  const Bytes wire = codec.wrap_layer(key, 21, segment);

  // Warm the pool: first lease may grow the freelist entry.
  { PooledBytes warm(pool, wire.size() + codec.layer_overhead()); }

  for (int round = 0; round < 4; ++round) {
    const std::uint64_t before = alloc_probe::allocations();
    {
      // Receive: copy the wire blob into a pooled buffer, peel in place
      // (forward direction), then re-wrap in place (reverse direction) —
      // the two relay data-plane operations.
      PooledBytes buf(pool, wire.size() + codec.layer_overhead());
      buf->assign(wire.begin(), wire.end());
      ASSERT_TRUE(codec.unwrap_layer_in_place(key, 21, *buf));
      codec.wrap_layer_in_place(key, 21, *buf);
    }
    const std::uint64_t after = alloc_probe::allocations();
    EXPECT_EQ(after - before, 0u) << "round " << round;
  }
}

TEST(ZeroAllocRelayTest, PoolReusesCapacity) {
  BufferPool pool(1024);
  Bytes first = pool.acquire(4096);
  const std::size_t cap = first.capacity();
  EXPECT_GE(cap, 4096u);
  pool.release(std::move(first));
  EXPECT_EQ(pool.idle(), 1u);
  const Bytes second = pool.acquire();
  EXPECT_EQ(second.capacity(), cap);  // same warm buffer came back
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(RealOnionCodecTest, WrongKeyOrTamperRejected) {
  CodecFixture fx;
  RealOnionCodec codec;
  const auto keys = fx.relay_keys(2);
  Bytes onion = codec.build_path_onion({1, 2}, keys, 3, fx.directory, fx.rng);
  // Wrong relay cannot peel.
  EXPECT_FALSE(codec.peel_path_onion(fx.keys[5], onion).has_value());
  // Tampered onion rejected by the right relay.
  onion[40] ^= 1;
  EXPECT_FALSE(codec.peel_path_onion(fx.keys[1], onion).has_value());

  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  Bytes layered = codec.wrap_layer(key, 1, bytes_of("x"));
  // Wrong seq (nonce) fails authentication.
  EXPECT_FALSE(codec.unwrap_layer(key, 2, layered).has_value());
  layered[0] ^= 1;
  EXPECT_FALSE(codec.unwrap_layer(key, 1, layered).has_value());
}

TEST(OnionSizeTest, FastMatchesRealByteForByte) {
  // The statistical benches rely on FastOnionCodec producing identical
  // message sizes to the real crypto, so bandwidth numbers carry over.
  CodecFixture fx;
  RealOnionCodec real;
  FastOnionCodec fast;
  EXPECT_EQ(real.layer_overhead(), fast.layer_overhead());
  EXPECT_EQ(real.core_overhead(), fast.core_overhead());

  for (std::size_t relays : {1u, 3u, 5u}) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < relays; ++i) ids.push_back(static_cast<NodeId>(i));
    const auto keys = fx.relay_keys(relays);
    const Bytes a =
        real.build_path_onion(ids, keys, 7, fx.directory, fx.rng);
    const Bytes b =
        fast.build_path_onion(ids, keys, 7, fx.directory, fx.rng);
    EXPECT_EQ(a.size(), b.size()) << "relays=" << relays;
  }

  PayloadCore core;
  core.segment = Bytes(777, 1);
  const Bytes sealed_real =
      real.seal_payload_core(core, fx.keys[0].public_key, fx.rng);
  const Bytes sealed_fast =
      fast.seal_payload_core(core, fx.keys[0].public_key, fx.rng);
  EXPECT_EQ(sealed_real.size(), sealed_fast.size());

  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  EXPECT_EQ(real.wrap_layer(key, 0, Bytes(100, 0)).size(),
            fast.wrap_layer(key, 0, Bytes(100, 0)).size());
}

TEST(PathHopWireTest, ParseRejectsMalformed) {
  // Too short.
  EXPECT_FALSE(parse_path_hop(Bytes(10, 0)).has_value());
  // Bad last flag.
  Bytes bad(4 + 1 + 32, 0);
  bad[4] = 7;
  EXPECT_FALSE(parse_path_hop(bad).has_value());
  // last = 1 but trailing bytes present.
  Bytes trailing(4 + 1 + 32 + 3, 0);
  trailing[4] = 1;
  EXPECT_FALSE(parse_path_hop(trailing).has_value());
  // last = 0 but no nested onion.
  Bytes empty_rest(4 + 1 + 32, 0);
  empty_rest[4] = 0;
  EXPECT_FALSE(parse_path_hop(empty_rest).has_value());
}

TEST(PayloadCoreWireTest, ParseRejectsLengthMismatch) {
  PayloadCore core;
  core.segment = Bytes(10, 2);
  Bytes plain = serialize_payload_core(core);
  EXPECT_TRUE(parse_payload_core(plain).has_value());
  plain.push_back(0);
  EXPECT_FALSE(parse_payload_core(plain).has_value());
  plain.pop_back();
  plain.pop_back();
  EXPECT_FALSE(parse_payload_core(plain).has_value());
}

// The auth trailer admits exactly two wire shapes: legacy (no trailer) and
// tagged ([flags=3][digest][tag]). The flags byte and the serialized size
// must agree; any other combination is a parse failure, not a fallback.
TEST(PayloadCoreWireTest, AuthTrailerShapesRoundTrip) {
  PayloadCore core;
  core.message_id = 77;
  core.segment_index = 2;
  core.needed_segments = 2;
  core.total_segments = 4;
  core.segment = Bytes(32, 0xab);
  for (std::uint8_t i = 0; i < crypto::kMessageDigestSize; ++i) {
    core.message_digest[i] = i;
  }
  for (std::uint8_t i = 0; i < crypto::kSegmentTagSize; ++i) {
    core.auth_tag[i] = static_cast<std::uint8_t>(0xf0 + i);
  }

  const Bytes legacy = serialize_payload_core(core);  // kAuthNone default

  core.auth_flags = PayloadCore::kAuthTagged;
  const Bytes tagged = serialize_payload_core(core);
  EXPECT_EQ(tagged.size(), legacy.size() + 1 + crypto::kMessageDigestSize +
                               crypto::kSegmentTagSize);

  const auto parsed_legacy = parse_payload_core(legacy);
  ASSERT_TRUE(parsed_legacy.has_value());
  EXPECT_EQ(parsed_legacy->auth_flags, PayloadCore::kAuthNone);

  const auto parsed_tagged = parse_payload_core(tagged);
  ASSERT_TRUE(parsed_tagged.has_value());
  EXPECT_EQ(parsed_tagged->auth_flags, PayloadCore::kAuthTagged);
  EXPECT_EQ(parsed_tagged->message_digest, core.message_digest);
  EXPECT_EQ(parsed_tagged->auth_tag, core.auth_tag);
}

TEST(PayloadCoreWireTest, AuthTrailerRejectsFlagSizeMismatch) {
  PayloadCore core;
  core.needed_segments = 1;
  core.total_segments = 1;
  core.segment = Bytes(16, 0x11);
  const Bytes legacy = serialize_payload_core(core);
  core.auth_flags = PayloadCore::kAuthTagged;
  const Bytes tagged = serialize_payload_core(core);

  // The flags byte sits right after the segment bytes. At tagged size,
  // every flags byte but kAuthTagged is rejected outright: the retired
  // digest value 1 and the legacy 0 included.
  const std::size_t flags_at = legacy.size();
  ASSERT_EQ(tagged[flags_at], PayloadCore::kAuthTagged);
  for (int flags = 0; flags < 256; ++flags) {
    Bytes mutated = tagged;
    mutated[flags_at] = static_cast<std::uint8_t>(flags);
    EXPECT_EQ(parse_payload_core(mutated).has_value(),
              flags == PayloadCore::kAuthTagged)
        << flags;
  }

  // No other trailer length parses, whatever the flags byte says: the
  // retired 17-byte digest-only trailer ([flags=1][digest]) and every
  // truncation of the tagged one included.
  for (std::size_t extra = 1; extra < tagged.size() - legacy.size();
       ++extra) {
    for (const int flags : {0, 1, 2, 3, 0xff}) {
      Bytes mutated = legacy;
      mutated.push_back(static_cast<std::uint8_t>(flags));
      mutated.resize(legacy.size() + extra, 0x5a);
      EXPECT_FALSE(parse_payload_core(mutated).has_value())
          << "extra=" << extra << " flags=" << flags;
    }
  }
}

}  // namespace
}  // namespace p2panon::anon
