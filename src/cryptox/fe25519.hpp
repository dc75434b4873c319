// Field arithmetic modulo p = 2^255 - 19, shared by X25519 (Montgomery
// ladder) and Ed25519 (Edwards curve signatures).
//
// Internal header: elements are 5 limbs of 51 bits ("donna-c64"
// representation); products use 128-bit accumulators. Functions are
// branch-free where the protocols require it (cswap); the reductions keep
// limbs below 2^52 between operations. Verified indirectly through the RFC
// 7748 and RFC 8032 test vectors in the crypto test suite.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace citymesh::cryptox::fe {

using Fe = std::array<std::uint64_t, 5>;
__extension__ using u128 = unsigned __int128;
using Bytes32 = std::array<std::uint8_t, 32>;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // host is little-endian on all supported targets
}

inline Fe frombytes(const Bytes32& s) {
  Fe h;
  h[0] = load_le64(s.data() + 0) & kMask51;
  h[1] = (load_le64(s.data() + 6) >> 3) & kMask51;
  h[2] = (load_le64(s.data() + 12) >> 6) & kMask51;
  h[3] = (load_le64(s.data() + 19) >> 1) & kMask51;
  h[4] = (load_le64(s.data() + 24) >> 12) & kMask51;
  return h;
}

/// Fully reduce modulo p and serialize little-endian.
inline Bytes32 tobytes(const Fe& in) {
  Fe t = in;
  for (int pass = 0; pass < 2; ++pass) {
    t[1] += t[0] >> 51; t[0] &= kMask51;
    t[2] += t[1] >> 51; t[1] &= kMask51;
    t[3] += t[2] >> 51; t[2] &= kMask51;
    t[4] += t[3] >> 51; t[3] &= kMask51;
    t[0] += 19 * (t[4] >> 51); t[4] &= kMask51;
  }
  // Offset by +19, carry, then add p and discard bit 255: canonicalizes.
  t[0] += 19;
  t[1] += t[0] >> 51; t[0] &= kMask51;
  t[2] += t[1] >> 51; t[1] &= kMask51;
  t[3] += t[2] >> 51; t[2] &= kMask51;
  t[4] += t[3] >> 51; t[3] &= kMask51;
  t[0] += 19 * (t[4] >> 51); t[4] &= kMask51;

  t[0] += (std::uint64_t{1} << 51) - 19;
  t[1] += (std::uint64_t{1} << 51) - 1;
  t[2] += (std::uint64_t{1} << 51) - 1;
  t[3] += (std::uint64_t{1} << 51) - 1;
  t[4] += (std::uint64_t{1} << 51) - 1;
  t[1] += t[0] >> 51; t[0] &= kMask51;
  t[2] += t[1] >> 51; t[1] &= kMask51;
  t[3] += t[2] >> 51; t[2] &= kMask51;
  t[4] += t[3] >> 51; t[3] &= kMask51;
  t[4] &= kMask51;

  Bytes32 out{};
  const std::uint64_t w0 = t[0] | (t[1] << 51);
  const std::uint64_t w1 = (t[1] >> 13) | (t[2] << 38);
  const std::uint64_t w2 = (t[2] >> 26) | (t[3] << 25);
  const std::uint64_t w3 = (t[3] >> 39) | (t[4] << 12);
  std::memcpy(out.data() + 0, &w0, 8);
  std::memcpy(out.data() + 8, &w1, 8);
  std::memcpy(out.data() + 16, &w2, 8);
  std::memcpy(out.data() + 24, &w3, 8);
  return out;
}

constexpr Fe zero() { return {0, 0, 0, 0, 0}; }
constexpr Fe one() { return {1, 0, 0, 0, 0}; }

inline Fe add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

/// One carry pass: brings limbs below 2^51 + epsilon for inputs whose limbs
/// fit in 64 bits. Needed before operations with tight limb preconditions.
inline Fe carried(Fe t) {
  t[1] += t[0] >> 51; t[0] &= kMask51;
  t[2] += t[1] >> 51; t[1] &= kMask51;
  t[3] += t[2] >> 51; t[2] &= kMask51;
  t[4] += t[3] >> 51; t[3] &= kMask51;
  t[0] += 19 * (t[4] >> 51); t[4] &= kMask51;
  t[1] += t[0] >> 51; t[0] &= kMask51;
  return t;
}

/// a - b with an 8p bias so limbs stay non-negative.
/// Precondition: b's limbs are below 2^54 - 152 (true for outputs of mul/sq
/// and for one add/sub of such outputs; carry `b` first otherwise).
inline Fe sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t two54m152 = (std::uint64_t{1} << 54) - 152;  // 8*(2^51-19)
  constexpr std::uint64_t two54m8 = (std::uint64_t{1} << 54) - 8;      // 8*(2^51-1)
  return {a[0] + two54m152 - b[0], a[1] + two54m8 - b[1], a[2] + two54m8 - b[2],
          a[3] + two54m8 - b[3], a[4] + two54m8 - b[4]};
}

/// -a. Carries first: `a` may be an unreduced add/sub chain whose limbs
/// would otherwise underflow the 8p bias.
inline Fe neg(const Fe& a) { return sub(zero(), carried(a)); }

inline Fe mul(const Fe& a, const Fe& b) {
  const u128 m0 = static_cast<u128>(a[0]) * b[0] +
                  static_cast<u128>(19) * (static_cast<u128>(a[1]) * b[4] +
                                           static_cast<u128>(a[2]) * b[3] +
                                           static_cast<u128>(a[3]) * b[2] +
                                           static_cast<u128>(a[4]) * b[1]);
  const u128 m1 = static_cast<u128>(a[0]) * b[1] + static_cast<u128>(a[1]) * b[0] +
                  static_cast<u128>(19) * (static_cast<u128>(a[2]) * b[4] +
                                           static_cast<u128>(a[3]) * b[3] +
                                           static_cast<u128>(a[4]) * b[2]);
  const u128 m2 = static_cast<u128>(a[0]) * b[2] + static_cast<u128>(a[1]) * b[1] +
                  static_cast<u128>(a[2]) * b[0] +
                  static_cast<u128>(19) * (static_cast<u128>(a[3]) * b[4] +
                                           static_cast<u128>(a[4]) * b[3]);
  const u128 m3 = static_cast<u128>(a[0]) * b[3] + static_cast<u128>(a[1]) * b[2] +
                  static_cast<u128>(a[2]) * b[1] + static_cast<u128>(a[3]) * b[0] +
                  static_cast<u128>(19) * (static_cast<u128>(a[4]) * b[4]);
  const u128 m4 = static_cast<u128>(a[0]) * b[4] + static_cast<u128>(a[1]) * b[3] +
                  static_cast<u128>(a[2]) * b[2] + static_cast<u128>(a[3]) * b[1] +
                  static_cast<u128>(a[4]) * b[0];

  Fe r;
  std::uint64_t carry;
  r[0] = static_cast<std::uint64_t>(m0) & kMask51;
  carry = static_cast<std::uint64_t>(m0 >> 51);
  const u128 m1c = m1 + carry;
  r[1] = static_cast<std::uint64_t>(m1c) & kMask51;
  carry = static_cast<std::uint64_t>(m1c >> 51);
  const u128 m2c = m2 + carry;
  r[2] = static_cast<std::uint64_t>(m2c) & kMask51;
  carry = static_cast<std::uint64_t>(m2c >> 51);
  const u128 m3c = m3 + carry;
  r[3] = static_cast<std::uint64_t>(m3c) & kMask51;
  carry = static_cast<std::uint64_t>(m3c >> 51);
  const u128 m4c = m4 + carry;
  r[4] = static_cast<std::uint64_t>(m4c) & kMask51;
  carry = static_cast<std::uint64_t>(m4c >> 51);
  r[0] += carry * 19;
  r[1] += r[0] >> 51;
  r[0] &= kMask51;
  return r;
}

inline Fe sq(const Fe& a) { return mul(a, a); }

/// Multiply by a small scalar.
inline Fe mul_small(const Fe& a, std::uint64_t s) {
  Fe r;
  std::uint64_t carry = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 m = static_cast<u128>(a[i]) * s + carry;
    r[i] = static_cast<std::uint64_t>(m) & kMask51;
    carry = static_cast<std::uint64_t>(m >> 51);
  }
  r[0] += carry * 19;
  r[1] += r[0] >> 51;
  r[0] &= kMask51;
  return r;
}

/// z^(2^250 - 1): shared prefix of the inversion and pow22523 chains.
inline Fe pow_2_250_minus_1(const Fe& z, Fe& z11_out) {
  Fe z2 = sq(z);
  Fe t = sq(z2);
  t = sq(t);
  Fe z9 = mul(t, z);
  Fe z11 = mul(z9, z2);
  z11_out = z11;
  t = sq(z11);
  Fe z2_5_0 = mul(t, z9);
  t = sq(z2_5_0);
  for (int i = 0; i < 4; ++i) t = sq(t);
  Fe z2_10_0 = mul(t, z2_5_0);
  t = sq(z2_10_0);
  for (int i = 0; i < 9; ++i) t = sq(t);
  Fe z2_20_0 = mul(t, z2_10_0);
  t = sq(z2_20_0);
  for (int i = 0; i < 19; ++i) t = sq(t);
  t = mul(t, z2_20_0);
  t = sq(t);
  for (int i = 0; i < 9; ++i) t = sq(t);
  Fe z2_50_0 = mul(t, z2_10_0);
  t = sq(z2_50_0);
  for (int i = 0; i < 49; ++i) t = sq(t);
  Fe z2_100_0 = mul(t, z2_50_0);
  t = sq(z2_100_0);
  for (int i = 0; i < 99; ++i) t = sq(t);
  t = mul(t, z2_100_0);
  t = sq(t);
  for (int i = 0; i < 49; ++i) t = sq(t);
  return mul(t, z2_50_0);  // z^(2^250 - 1)
}

/// z^(p-2) = z^-1 (Fermat).
inline Fe invert(const Fe& z) {
  Fe z11;
  Fe t = pow_2_250_minus_1(z, z11);
  for (int i = 0; i < 5; ++i) t = sq(t);  // 2^255 - 32
  return mul(t, z11);                     // 2^255 - 21 = p - 2
}

/// z^((p-5)/8) = z^(2^252 - 3), used for square roots in decompression.
inline Fe pow22523(const Fe& z) {
  Fe z11;
  Fe t = pow_2_250_minus_1(z, z11);
  t = sq(t);                // 2^251 - 2
  t = sq(t);                // 2^252 - 4
  return mul(t, z);         // 2^252 - 3
}

/// Constant-time conditional swap: swap iff bit == 1.
inline void cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a[i] ^ b[i]);
    a[i] ^= x;
    b[i] ^= x;
  }
}

/// Constant-time conditional move: a = b iff bit == 1.
inline void cmov(Fe& a, const Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) a[i] ^= mask & (a[i] ^ b[i]);
}

inline bool equal(const Fe& a, const Fe& b) { return tobytes(a) == tobytes(b); }

inline bool is_zero(const Fe& a) { return tobytes(a) == Bytes32{}; }

/// Sign bit of the canonical encoding (x mod 2).
inline bool is_negative(const Fe& a) { return tobytes(a)[0] & 1; }

// ---- Curve constants (derived offline; see tools comment in ed25519.cpp) --

/// Edwards d = -121665/121666 mod p.
constexpr Fe kD = {0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                   0x739c663a03cbb, 0x52036cee2b6ff};
/// 2d.
constexpr Fe kD2 = {0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                    0x6738cc7407977, 0x2406d9dc56dff};
/// sqrt(-1) = 2^((p-1)/4).
constexpr Fe kSqrtM1 = {0x61b274a0ea0b0, 0xd5a5fc8f189d, 0x7ef5e9cbd0c60,
                        0x78595a6804c9e, 0x2b8324804fc1d};
/// Base point B = (x, 4/5) with x even.
constexpr Fe kBaseX = {0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d,
                       0x1ff60527118fe, 0x216936d3cd6e5};
constexpr Fe kBaseY = {0x6666666666658, 0x4cccccccccccc, 0x1999999999999,
                       0x3333333333333, 0x6666666666666};
constexpr Fe kBaseT = {0x68ab3a5b7dda3, 0xeea2a5eadbb, 0x2af8df483c27e,
                       0x332b375274732, 0x67875f0fd78b7};

}  // namespace citymesh::cryptox::fe
