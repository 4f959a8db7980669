#include "anon/onion.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/aead.hpp"
#include "crypto/sealed_box.hpp"
#include "crypto/sha256.hpp"

namespace p2panon::anon {

// --- base-class in-place defaults -----------------------------------------------
//
// Correct for any codec (delegates to the allocating forms); Real and Fast
// override with genuinely allocation-free versions.

void OnionCodec::wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                     Bytes& buf) const {
  buf = wrap_layer(key, seq, buf);
}

bool OnionCodec::unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                       Bytes& buf) const {
  auto inner = unwrap_layer(key, seq, buf);
  if (!inner.has_value()) return false;
  buf = std::move(*inner);
  return true;
}

// --- shared serialization ------------------------------------------------------

Bytes serialize_path_hop(const PathHop& hop, ByteView rest) {
  Bytes out;
  out.reserve(5 + hop.relay_key.size() + rest.size());
  put_u32be(out, hop.next);
  out.push_back(hop.last ? 1 : 0);
  append(out, ByteView(hop.relay_key.data(), hop.relay_key.size()));
  append(out, rest);
  return out;
}

std::optional<OnionCodec::PeeledPath> parse_path_hop(ByteView plain) {
  constexpr std::size_t kHeader = 4 + 1 + crypto::kChaChaKeySize;
  if (plain.size() < kHeader) return std::nullopt;
  OnionCodec::PeeledPath out;
  out.hop.next = get_u32be(plain, 0);
  const std::uint8_t last = plain[4];
  if (last > 1) return std::nullopt;
  out.hop.last = last == 1;
  std::memcpy(out.hop.relay_key.data(), plain.data() + 5,
              out.hop.relay_key.size());
  const ByteView rest = plain.subspan(kHeader);
  out.rest.assign(rest.begin(), rest.end());
  if (out.hop.last && !out.rest.empty()) return std::nullopt;
  if (!out.hop.last && out.rest.empty()) return std::nullopt;
  return out;
}

Bytes serialize_payload_core(const PayloadCore& core) {
  Bytes out;
  out.reserve(24 + core.responder_key.size() + core.segment.size() +
              (core.auth_flags != PayloadCore::kAuthNone ? 33 : 0));
  put_u64be(out, core.message_id);
  put_u32be(out, core.segment_index);
  put_u32be(out, core.original_size);
  put_u16be(out, core.needed_segments);
  put_u16be(out, core.total_segments);
  append(out, ByteView(core.responder_key.data(), core.responder_key.size()));
  put_u32be(out, static_cast<std::uint32_t>(core.segment.size()));
  append(out, core.segment);
  // Auth trailer: appended after the segment so a legacy core's bytes are
  // untouched. Its presence is cross-checked against the exact total size
  // at parse time.
  if (core.auth_flags != PayloadCore::kAuthNone) {
    out.push_back(core.auth_flags);
    append(out, ByteView(core.message_digest.data(),
                         core.message_digest.size()));
    append(out, ByteView(core.auth_tag.data(), core.auth_tag.size()));
  }
  return out;
}

std::optional<PayloadCore> parse_payload_core(ByteView plain) {
  constexpr std::size_t kHeader = 8 + 4 + 4 + 2 + 2 + crypto::kChaChaKeySize + 4;
  if (plain.size() < kHeader) return std::nullopt;
  PayloadCore core;
  core.message_id = get_u64be(plain, 0);
  core.segment_index = get_u32be(plain, 8);
  core.original_size = get_u32be(plain, 12);
  core.needed_segments = get_u16be(plain, 16);
  core.total_segments = get_u16be(plain, 18);
  std::memcpy(core.responder_key.data(), plain.data() + 20,
              core.responder_key.size());
  const std::size_t seg_len = get_u32be(plain, 20 + crypto::kChaChaKeySize);
  // Two valid shapes, each with an exact total size: legacy (no trailer)
  // and tagged ([flags][digest][tag], +33). A tagged-size core must carry
  // exactly the kAuthTagged flags byte; any other size fails parsing.
  constexpr std::size_t kTaggedTrailer =
      1 + crypto::kMessageDigestSize + crypto::kSegmentTagSize;
  if (plain.size() == kHeader + seg_len + kTaggedTrailer) {
    const std::size_t at = kHeader + seg_len;
    if (plain[at] != PayloadCore::kAuthTagged) return std::nullopt;
    core.auth_flags = PayloadCore::kAuthTagged;
    std::memcpy(core.message_digest.data(), plain.data() + at + 1,
                core.message_digest.size());
    std::memcpy(core.auth_tag.data(),
                plain.data() + at + 1 + core.message_digest.size(),
                core.auth_tag.size());
  } else if (plain.size() != kHeader + seg_len) {
    return std::nullopt;
  }
  // Semantic validation, not just framing: every honestly serialized core
  // satisfies the erasure layer's 1 <= m <= n <= 255 and indexes within n.
  // The statistical codec can hand us garbage that survives the length
  // check, and make_codec throws on out-of-range parameters.
  if (core.needed_segments == 0 ||
      core.needed_segments > core.total_segments ||
      core.total_segments > 255 ||
      core.segment_index >= core.total_segments) {
    return std::nullopt;
  }
  const ByteView seg = plain.subspan(kHeader, seg_len);
  core.segment.assign(seg.begin(), seg.end());
  return core;
}

// --- RealOnionCodec ---------------------------------------------------------------

Bytes RealOnionCodec::build_path_onion(const std::vector<NodeId>& relays,
                                       const std::vector<RelayKey>& relay_keys,
                                       NodeId responder,
                                       const crypto::KeyDirectory& directory,
                                       Rng& rng) const {
  if (relays.empty() || relays.size() != relay_keys.size()) {
    throw std::invalid_argument("build_path_onion: bad relay/key vectors");
  }
  Bytes blob;  // Path_{i+1}, starts as the termination marker (empty)
  for (std::size_t i = relays.size(); i-- > 0;) {
    PathHop hop;
    hop.last = (i + 1 == relays.size());
    hop.next = hop.last ? responder : relays[i + 1];
    hop.relay_key = relay_keys[i];
    const Bytes plain = serialize_path_hop(hop, blob);
    blob = crypto::sealed_box_seal(directory.public_key(relays[i]), plain,
                                   rng);
  }
  return blob;
}

std::optional<OnionCodec::PeeledPath> RealOnionCodec::peel_path_onion(
    const crypto::KeyPair& self, ByteView onion) const {
  const auto plain = crypto::sealed_box_open(self, onion);
  if (!plain.has_value()) return std::nullopt;
  return parse_path_hop(*plain);
}

Bytes RealOnionCodec::seal_payload_core(
    const PayloadCore& core, const crypto::X25519Key& responder_public,
    Rng& rng) const {
  return crypto::sealed_box_seal(responder_public,
                                 serialize_payload_core(core), rng);
}

std::optional<PayloadCore> RealOnionCodec::open_payload_core(
    const crypto::KeyPair& responder, ByteView sealed) const {
  const auto plain = crypto::sealed_box_open(responder, sealed);
  if (!plain.has_value()) return std::nullopt;
  return parse_payload_core(*plain);
}

Bytes RealOnionCodec::wrap_layer(const RelayKey& key, std::uint64_t seq,
                                 ByteView inner) const {
  return crypto::aead_seal(key, crypto::nonce_from_seq(seq), {}, inner);
}

std::optional<Bytes> RealOnionCodec::unwrap_layer(const RelayKey& key,
                                                  std::uint64_t seq,
                                                  ByteView outer) const {
  return crypto::aead_open(key, crypto::nonce_from_seq(seq), {}, outer);
}

void RealOnionCodec::wrap_layer_in_place(const RelayKey& key,
                                         std::uint64_t seq,
                                         Bytes& buf) const {
  buf.resize(buf.size() + crypto::kAeadTagSize);
  crypto::aead_seal_into(key, crypto::nonce_from_seq(seq), {}, buf);
}

bool RealOnionCodec::unwrap_layer_in_place(const RelayKey& key,
                                           std::uint64_t seq,
                                           Bytes& buf) const {
  if (buf.size() < crypto::kAeadTagSize) return false;
  if (!crypto::aead_open_into(key, crypto::nonce_from_seq(seq), {}, buf)) {
    return false;
  }
  buf.resize(buf.size() - crypto::kAeadTagSize);
  return true;
}

std::size_t RealOnionCodec::layer_overhead() const {
  return crypto::kAeadTagSize;
}

std::size_t RealOnionCodec::core_overhead() const {
  return crypto::kSealedBoxOverhead;
}

// --- FastOnionCodec ---------------------------------------------------------------
//
// Identical layouts; "encryption" is a splitmix64 keystream so the
// statistical benches spend their time in the protocol, not the cipher.

namespace {

std::uint64_t key_seed(ByteView key_material) {
  std::uint64_t seed = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < key_material.size(); ++i) {
    seed = seed * 0x100000001b3ULL + key_material[i];
  }
  return seed;
}

void xor_keystream(std::uint64_t seed, MutableByteView data) {
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint64_t word = splitmix64(state);
    for (int b = 0; b < 8 && i < data.size(); ++b, ++i) {
      data[i] ^= static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

}  // namespace

Bytes FastOnionCodec::build_path_onion(const std::vector<NodeId>& relays,
                                       const std::vector<RelayKey>& relay_keys,
                                       NodeId responder,
                                       const crypto::KeyDirectory& directory,
                                       Rng& rng) const {
  if (relays.empty() || relays.size() != relay_keys.size()) {
    throw std::invalid_argument("build_path_onion: bad relay/key vectors");
  }
  Bytes blob;
  for (std::size_t i = relays.size(); i-- > 0;) {
    PathHop hop;
    hop.last = (i + 1 == relays.size());
    hop.next = hop.last ? responder : relays[i + 1];
    hop.relay_key = relay_keys[i];
    Bytes plain = serialize_path_hop(hop, blob);
    // Mimic sealed-box framing: 32 filler bytes + body + 16 filler bytes.
    const auto& pk = directory.public_key(relays[i]);
    xor_keystream(key_seed(ByteView(pk.data(), pk.size())), plain);
    Bytes boxed;
    boxed.reserve(plain.size() + crypto::kSealedBoxOverhead);
    boxed.resize(32);
    rng.fill(boxed.data(), 32);
    append(boxed, plain);
    boxed.resize(boxed.size() + 16, 0);
    blob = std::move(boxed);
  }
  return blob;
}

std::optional<OnionCodec::PeeledPath> FastOnionCodec::peel_path_onion(
    const crypto::KeyPair& self, ByteView onion) const {
  if (onion.size() < crypto::kSealedBoxOverhead) return std::nullopt;
  Bytes plain(onion.begin() + 32, onion.end() - 16);
  xor_keystream(
      key_seed(ByteView(self.public_key.data(), self.public_key.size())),
      plain);
  return parse_path_hop(plain);
}

Bytes FastOnionCodec::seal_payload_core(
    const PayloadCore& core, const crypto::X25519Key& responder_public,
    Rng& rng) const {
  Bytes plain = serialize_payload_core(core);
  xor_keystream(
      key_seed(ByteView(responder_public.data(), responder_public.size())),
      plain);
  Bytes boxed;
  boxed.resize(32);
  rng.fill(boxed.data(), 32);
  append(boxed, plain);
  boxed.resize(boxed.size() + 16, 0);
  return boxed;
}

std::optional<PayloadCore> FastOnionCodec::open_payload_core(
    const crypto::KeyPair& responder, ByteView sealed) const {
  if (sealed.size() < crypto::kSealedBoxOverhead) return std::nullopt;
  Bytes plain(sealed.begin() + 32, sealed.end() - 16);
  xor_keystream(key_seed(ByteView(responder.public_key.data(),
                                  responder.public_key.size())),
                plain);
  return parse_payload_core(plain);
}

Bytes FastOnionCodec::wrap_layer(const RelayKey& key, std::uint64_t seq,
                                 ByteView inner) const {
  Bytes out(inner.begin(), inner.end());
  xor_keystream(key_seed(ByteView(key.data(), key.size())) ^ seq, out);
  out.resize(out.size() + crypto::kAeadTagSize, 0);
  return out;
}

std::optional<Bytes> FastOnionCodec::unwrap_layer(const RelayKey& key,
                                                  std::uint64_t seq,
                                                  ByteView outer) const {
  if (outer.size() < crypto::kAeadTagSize) return std::nullopt;
  Bytes out(outer.begin(), outer.end() - crypto::kAeadTagSize);
  xor_keystream(key_seed(ByteView(key.data(), key.size())) ^ seq, out);
  return out;
}

void FastOnionCodec::wrap_layer_in_place(const RelayKey& key,
                                         std::uint64_t seq,
                                         Bytes& buf) const {
  xor_keystream(key_seed(ByteView(key.data(), key.size())) ^ seq, buf);
  buf.resize(buf.size() + crypto::kAeadTagSize, 0);
}

bool FastOnionCodec::unwrap_layer_in_place(const RelayKey& key,
                                           std::uint64_t seq,
                                           Bytes& buf) const {
  if (buf.size() < crypto::kAeadTagSize) return false;
  buf.resize(buf.size() - crypto::kAeadTagSize);
  xor_keystream(key_seed(ByteView(key.data(), key.size())) ^ seq, buf);
  return true;
}

std::size_t FastOnionCodec::layer_overhead() const {
  return crypto::kAeadTagSize;
}

std::size_t FastOnionCodec::core_overhead() const {
  return crypto::kSealedBoxOverhead;
}

}  // namespace p2panon::anon
