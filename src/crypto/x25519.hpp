// X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//
// Field arithmetic mod 2^255 - 19 with five 51-bit limbs and a
// constant-time Montgomery ladder. Reduction is lazy, under one limb-bound
// invariant: multiply and square take limbs < 2^54 and return limbs
// < 2^52, and an add or subtract of two such outputs stays < 2^54, so it
// feeds the next multiply without a carry pass. Squaring has its own
// 15-product routine, and inversion uses ref10's addition chain. Verified
// against the RFC 7748 §5.2 and §6.1 vectors and against pinned outputs of
// the earlier fully-carried arithmetic on extreme limb values.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace p2panon::crypto {

constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// Scalar multiplication: out = scalar * point (u-coordinate). The scalar
/// is clamped per RFC 7748.
X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point);

/// Public key for a (clamped) private scalar: scalar * base point (u = 9).
X25519Key x25519_base(const X25519Key& scalar);

}  // namespace p2panon::crypto
