#include "crypto/x25519.hpp"

#include <cstring>

namespace p2panon::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs, little-endian.
//
// Reduction is lazy. fe_mul / fe_sq / fe_mul_small accept limbs < 2^54 and
// return limbs < 2^52; fe_add / fe_sub of two such outputs stay < 2^54, so
// they are fed straight into the next multiply without a carry pass. Every
// value is exact mod p; fe_to_bytes canonicalizes.
struct Fe {
  std::uint64_t v[5];
};

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

// Limbs < 2^52 each: the sum stays < 2^53.
Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

// a - b + 4p. 4p's limbs (~2^53) exceed any limb of b < 2^52, so no limb
// goes negative, and a + 4p < 2^52 + 2^53 < 2^54.
Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t kFourP0 = 4 * (kMask51 - 18);  // 4 * (2^51 - 19)
  constexpr std::uint64_t kFourP = 4 * kMask51;          // 4 * (2^51 - 1)
  return Fe{{a.v[0] + kFourP0 - b.v[0], a.v[1] + kFourP - b.v[1],
             a.v[2] + kFourP - b.v[2], a.v[3] + kFourP - b.v[3],
             a.v[4] + kFourP - b.v[4]}};
}

// Carries five 128-bit column sums h_i (weight 2^(51 i)) into limbs < 2^52,
// folding the overflow past 2^255 back in as 19 * carry. For inputs < 2^54
// the largest column is 77 * 2^108 < 2^115, and h4 plus its incoming carry
// is < 5 * 2^108 + 2^62, so the top carry is < 2^59.4 and 19 * carry plus a
// 51-bit limb still fits in 64 bits. Forced inline: called out of line, the
// ten 64-bit halves of its arguments spill to the stack on every multiply.
__attribute__((always_inline)) inline Fe fe_reduce(u128 h0, u128 h1, u128 h2,
                                                   u128 h3, u128 h4) {
  h1 += static_cast<std::uint64_t>(h0 >> 51);
  h2 += static_cast<std::uint64_t>(h1 >> 51);
  h3 += static_cast<std::uint64_t>(h2 >> 51);
  h4 += static_cast<std::uint64_t>(h3 >> 51);
  std::uint64_t r0 = (static_cast<std::uint64_t>(h0) & kMask51) +
                     19 * static_cast<std::uint64_t>(h4 >> 51);
  const std::uint64_t r1 =
      (static_cast<std::uint64_t>(h1) & kMask51) + (r0 >> 51);
  r0 &= kMask51;
  return Fe{{r0, r1, static_cast<std::uint64_t>(h2) & kMask51,
             static_cast<std::uint64_t>(h3) & kMask51,
             static_cast<std::uint64_t>(h4) & kMask51}};
}

Fe fe_mul(const Fe& f, const Fe& g) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                      f4 = f.v[4];
  const std::uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3],
                      g4 = g.v[4];
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                      g4_19 = 19 * g4;
  return fe_reduce(
      (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 +
          (u128)f3 * g2_19 + (u128)f4 * g1_19,
      (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 +
          (u128)f4 * g2_19,
      (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 +
          (u128)f4 * g3_19,
      (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 +
          (u128)f4 * g4_19,
      (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 +
          (u128)f4 * g0);
}

// f^2 with the symmetric cross terms doubled once: 15 limb products. The
// column sums equal fe_mul(f, f)'s exactly.
Fe fe_sq(const Fe& f) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                      f4 = f.v[4];
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1, f2_2 = 2 * f2,
                      f3_2 = 2 * f3;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  return fe_reduce(
      (u128)f0 * f0 + (u128)f1_2 * f4_19 + (u128)f2_2 * f3_19,
      (u128)f0_2 * f1 + (u128)f2_2 * f4_19 + (u128)f3 * f3_19,
      (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3_2 * f4_19,
      (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4 * f4_19,
      (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2);
}

// f squared n >= 1 times.
Fe fe_sq_n(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = fe_sq(f);
  return f;
}

Fe fe_mul_small(const Fe& f, std::uint64_t s) {
  return fe_reduce((u128)f.v[0] * s, (u128)f.v[1] * s, (u128)f.v[2] * s,
                   (u128)f.v[3] * s, (u128)f.v[4] * s);
}

// Inversion via Fermat, f^(p-2) with p - 2 = 2^255 - 21, along ref10's
// addition chain: 254 squarings and 11 multiplies. zA_B = f^(2^A - 2^B).
Fe fe_invert(const Fe& f) {
  const Fe z2 = fe_sq(f);                                  // f^2
  const Fe z9 = fe_mul(fe_sq_n(z2, 2), f);                 // f^9
  const Fe z11 = fe_mul(z9, z2);                           // f^11
  const Fe z5_0 = fe_mul(fe_sq(z11), z9);                  // f^(2^5 - 1)
  const Fe z10_0 = fe_mul(fe_sq_n(z5_0, 5), z5_0);
  const Fe z20_0 = fe_mul(fe_sq_n(z10_0, 10), z10_0);
  const Fe z40_0 = fe_mul(fe_sq_n(z20_0, 20), z20_0);
  const Fe z50_0 = fe_mul(fe_sq_n(z40_0, 10), z10_0);
  const Fe z100_0 = fe_mul(fe_sq_n(z50_0, 50), z50_0);
  const Fe z200_0 = fe_mul(fe_sq_n(z100_0, 100), z100_0);
  const Fe z250_0 = fe_mul(fe_sq_n(z200_0, 50), z50_0);
  return fe_mul(fe_sq_n(z250_0, 5), z11);  // f^(2^255 - 2^5 + 11)
}

Fe fe_from_bytes(const std::uint8_t bytes[32]) {
  // Limb i holds bits [51*i, 51*i + 51); masking limb 4 to 51 bits also
  // discards bit 255, as RFC 7748 requires.
  auto load = [&](int byte, int shift) {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= (std::uint64_t)bytes[byte + i] << (8 * i);
    }
    return out >> shift;
  };
  Fe out;
  out.v[0] = load(0, 0) & kMask51;
  out.v[1] = load(6, 3) & kMask51;
  out.v[2] = load(12, 6) & kMask51;
  out.v[3] = load(19, 1) & kMask51;
  out.v[4] = load(24, 12) & kMask51;
  return out;
}

void fe_to_bytes(std::uint8_t out[32], Fe f) {
  // Two carry passes bring limbs < 2^52 under 2^51.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      f.v[i + 1] += f.v[i] >> 51;
      f.v[i] &= kMask51;
    }
    f.v[0] += 19 * (f.v[4] >> 51);
    f.v[4] &= kMask51;
  }
  // Canonicalize: subtract p if f >= p, twice to be safe.
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t g[5];
    g[0] = f.v[0] + 19;
    std::uint64_t carry = g[0] >> 51;
    g[0] &= kMask51;
    for (int i = 1; i < 5; ++i) {
      g[i] = f.v[i] + carry;
      carry = g[i] >> 51;
      g[i] &= kMask51;
    }
    // carry is 1 iff f + 19 >= 2^255, i.e. f >= p.
    if (carry) {
      for (int i = 0; i < 5; ++i) f.v[i] = g[i];
    }
  }
  std::uint64_t packed[4];
  packed[0] = f.v[0] | (f.v[1] << 51);
  packed[1] = (f.v[1] >> 13) | (f.v[2] << 38);
  packed[2] = (f.v[2] >> 26) | (f.v[3] << 25);
  packed[3] = (f.v[3] >> 39) | (f.v[4] << 12);
  for (int i = 0; i < 4; ++i) store_u64le(out + 8 * i, packed[i]);
}

void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;  // all-ones when swap == 1
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point) {
  std::uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  const Fe x1 = fe_from_bytes(u_point.data());
  Fe x2 = fe_one();
  Fe z2 = fe_zero();
  Fe x3 = x1;
  Fe z3 = fe_one();
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    // RFC 7748 §5 ladder step. Sums and differences of reduced values
    // go straight into the next multiply (see the bounds on Fe).
    const Fe a = fe_add(x2, z2);
    const Fe b = fe_sub(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe da = fe_mul(fe_sub(x3, z3), a);
    const Fe cb = fe_mul(fe_add(x3, z3), b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }

  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  const Fe result = fe_mul(x2, fe_invert(z2));
  X25519Key out;
  fe_to_bytes(out.data(), result);
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

}  // namespace p2panon::crypto
