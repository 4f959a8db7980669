// Onion construction and stripping (paper §4.1, §4.2).
//
// The OnionCodec builds and peels the two nested structures the protocols
// use:
//
//  * Path onions (§4.1): Path_i = <P_{i+1}, R_i, Path_{i+1}>_{PubKey_i},
//    terminated by a marker. Each relay peels one public-key layer and
//    learns only its successor and its symmetric key R_i.
//  * Payload onions (§4.2): the inner core <MID, Mp>_{R_{L+1}},
//    <R_{L+1}>_{PubKey_D} for the responder, wrapped in one symmetric
//    layer per relay: PayLoad_i = <PayLoad_{i+1}>_{R_i}. Relays strip
//    layers forward; on the reverse path they *add* layers, which the
//    initiator (knowing every R_i) strips all at once.
//
// Two interchangeable implementations:
//  * RealOnionCodec — X25519 sealed boxes + ChaCha20-Poly1305, the real
//    thing, used in examples, unit tests and the quickstart;
//  * FastOnionCodec — byte-layout-identical but with a non-cryptographic
//    keystream, used by the statistical benches where millions of layer
//    operations would otherwise dominate runtime. Sizes (and therefore all
//    bandwidth numbers) match RealOnionCodec exactly — asserted by tests.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/keys.hpp"
#include "crypto/segment_auth.hpp"

namespace p2panon::anon {

using RelayKey = crypto::ChaChaKey;  // the paper's R_i

/// One hop's plaintext inside a path onion.
struct PathHop {
  NodeId next = kInvalidNode;  // P_{i+1} (the responder for the last relay)
  RelayKey relay_key{};        // R_i
  bool last = false;           // Path_{i+1} == termination marker
};

/// The responder-facing core of a payload onion.
struct PayloadCore {
  /// auth_flags values. Any other value fails parsing, and the flags byte
  /// must agree with the core's exact size.
  static constexpr std::uint8_t kAuthNone = 0;    // legacy core, no trailer
  static constexpr std::uint8_t kAuthTagged = 3;  // [flags][digest][tag]

  MessageId message_id = 0;
  std::uint32_t segment_index = 0;
  std::uint32_t original_size = 0;  // |M| so the responder can truncate
  std::uint16_t needed_segments = 1;  // the paper's out-of-band m
  std::uint16_t total_segments = 1;   // n, so the responder picks the codec
  Bytes segment;                    // Mp
  RelayKey responder_key{};         // R_{L+1}, for the reverse path

  // Corruption-resilience trailer (absent on the wire when auth_flags ==
  // kAuthNone, which keeps legacy cores byte-identical). The digest is the
  // truncated SHA-256 of the whole message M; the tag authenticates this
  // segment plus every header field the decoder will trust (see
  // crypto/segment_auth.hpp).
  std::uint8_t auth_flags = kAuthNone;
  crypto::MessageDigest message_digest{};
  crypto::SegmentTag auth_tag{};
};

class OnionCodec {
 public:
  virtual ~OnionCodec() = default;

  // --- path onions (§4.1) ---

  /// Builds the nested path onion for `relays` terminating at `responder`.
  /// `relay_keys[i]` is R_i for relays[i]. Layer i is sealed to
  /// directory.public_key(relays[i]).
  virtual Bytes build_path_onion(const std::vector<NodeId>& relays,
                                 const std::vector<RelayKey>& relay_keys,
                                 NodeId responder,
                                 const crypto::KeyDirectory& directory,
                                 Rng& rng) const = 0;

  /// Relay-side peel: opens the outer layer with `self`'s keypair,
  /// returning this hop's info and the remaining onion (empty when last).
  struct PeeledPath {
    PathHop hop;
    Bytes rest;
  };
  virtual std::optional<PeeledPath> peel_path_onion(
      const crypto::KeyPair& self, ByteView onion) const = 0;

  // --- payload onions (§4.2) ---

  /// Seals the responder core with the responder's public key + R_{L+1}.
  virtual Bytes seal_payload_core(const PayloadCore& core,
                                  const crypto::X25519Key& responder_public,
                                  Rng& rng) const = 0;

  virtual std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const = 0;

  /// One symmetric layer; `seq` must be unique per (key, direction).
  virtual Bytes wrap_layer(const RelayKey& key, std::uint64_t seq,
                           ByteView inner) const = 0;
  virtual std::optional<Bytes> unwrap_layer(const RelayKey& key,
                                            std::uint64_t seq,
                                            ByteView outer) const = 0;

  /// In-place layer ops — the relay fast path. wrap grows `buf` by
  /// layer_overhead() and seals it in place; unwrap authenticates, strips
  /// the layer and shrinks `buf` (returning false with `buf` unchanged on
  /// failure). Byte outputs are identical to the allocating forms. When
  /// `buf` has spare capacity (e.g. a BufferPool lease) neither op touches
  /// the heap; the base-class defaults delegate to the allocating forms so
  /// other codecs stay correct without overriding.
  virtual void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                   Bytes& buf) const;
  virtual bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                     Bytes& buf) const;

  /// Per-layer ciphertext expansion in bytes (for bandwidth math).
  virtual std::size_t layer_overhead() const = 0;
  /// Sealed-core expansion over the serialized PayloadCore.
  virtual std::size_t core_overhead() const = 0;

  virtual std::string name() const = 0;
};

/// X25519 + ChaCha20-Poly1305 implementation.
class RealOnionCodec final : public OnionCodec {
 public:
  Bytes build_path_onion(const std::vector<NodeId>& relays,
                         const std::vector<RelayKey>& relay_keys,
                         NodeId responder,
                         const crypto::KeyDirectory& directory,
                         Rng& rng) const override;
  std::optional<PeeledPath> peel_path_onion(const crypto::KeyPair& self,
                                            ByteView onion) const override;
  Bytes seal_payload_core(const PayloadCore& core,
                          const crypto::X25519Key& responder_public,
                          Rng& rng) const override;
  std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const override;
  Bytes wrap_layer(const RelayKey& key, std::uint64_t seq,
                   ByteView inner) const override;
  std::optional<Bytes> unwrap_layer(const RelayKey& key, std::uint64_t seq,
                                    ByteView outer) const override;
  void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override;
  bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override;
  std::size_t layer_overhead() const override;
  std::size_t core_overhead() const override;
  std::string name() const override { return "real"; }
};

/// Size-faithful stand-in: identical layouts and overheads, keystream from
/// splitmix64 instead of ChaCha20, "sealed boxes" keyed on the recipient's
/// public key bytes instead of a DH. NOT SECURE — simulation throughput
/// only.
class FastOnionCodec final : public OnionCodec {
 public:
  Bytes build_path_onion(const std::vector<NodeId>& relays,
                         const std::vector<RelayKey>& relay_keys,
                         NodeId responder,
                         const crypto::KeyDirectory& directory,
                         Rng& rng) const override;
  std::optional<PeeledPath> peel_path_onion(const crypto::KeyPair& self,
                                            ByteView onion) const override;
  Bytes seal_payload_core(const PayloadCore& core,
                          const crypto::X25519Key& responder_public,
                          Rng& rng) const override;
  std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const override;
  Bytes wrap_layer(const RelayKey& key, std::uint64_t seq,
                   ByteView inner) const override;
  std::optional<Bytes> unwrap_layer(const RelayKey& key, std::uint64_t seq,
                                    ByteView outer) const override;
  void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override;
  bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override;
  std::size_t layer_overhead() const override;
  std::size_t core_overhead() const override;
  std::string name() const override { return "fast"; }
};

/// Serialization shared by both codecs (exposed for tests).
Bytes serialize_path_hop(const PathHop& hop, ByteView rest);
std::optional<OnionCodec::PeeledPath> parse_path_hop(ByteView plain);
Bytes serialize_payload_core(const PayloadCore& core);
std::optional<PayloadCore> parse_payload_core(ByteView plain);

}  // namespace p2panon::anon
