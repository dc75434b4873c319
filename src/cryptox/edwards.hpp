// Edwards-curve group arithmetic for Curve25519, shared by Ed25519 and the
// X25519 public-key derivation.
//
// Internal header. Points are in extended homogeneous coordinates
// (X:Y:Z:T) with x = X/Z, y = Y/Z and xy = T/Z over the fe25519 field, on
// -x^2 + y^2 = 1 + d x^2 y^2, the curve birationally equivalent to X25519's
// Montgomery curve by u = (1 + y)/(1 - y); the base point B maps to u = 9.
#pragma once

#include <array>
#include <cstdint>

#include "cryptox/fe25519.hpp"

namespace citymesh::cryptox::ge {

struct Point {
  fe::Fe x;
  fe::Fe y;
  fe::Fe z;
  fe::Fe t;
};

inline Point identity() { return {fe::zero(), fe::one(), fe::one(), fe::zero()}; }

inline Point base_point() { return {fe::kBaseX, fe::kBaseY, fe::one(), fe::kBaseT}; }

/// Unified addition (RFC 8032 §5.1.4).
inline Point add(const Point& p, const Point& q) {
  const fe::Fe a = fe::mul(fe::sub(p.y, p.x), fe::sub(q.y, q.x));
  const fe::Fe b = fe::mul(fe::add(p.y, p.x), fe::add(q.y, q.x));
  const fe::Fe c = fe::mul(fe::mul(p.t, fe::kD2), q.t);
  const fe::Fe d = fe::mul_small(fe::mul(p.z, q.z), 2);
  const fe::Fe e = fe::sub(b, a);
  const fe::Fe f = fe::sub(d, c);
  const fe::Fe g = fe::add(d, c);
  const fe::Fe h = fe::add(b, a);
  return {fe::mul(e, f), fe::mul(g, h), fe::mul(f, g), fe::mul(e, h)};
}

/// Doubling (RFC 8032 §5.1.4).
inline Point dbl(const Point& p) {
  const fe::Fe a = fe::sq(p.x);
  const fe::Fe b = fe::sq(p.y);
  const fe::Fe c = fe::mul_small(fe::sq(p.z), 2);
  const fe::Fe h = fe::add(a, b);
  const fe::Fe e = fe::sub(h, fe::sq(fe::add(p.x, p.y)));
  const fe::Fe g = fe::sub(a, b);
  const fe::Fe f = fe::add(c, g);
  return {fe::mul(e, f), fe::mul(g, h), fe::mul(f, g), fe::mul(e, h)};
}

/// a·B for the base point B, a the 32-byte little-endian integer `scalar`.
/// Precondition: scalar[31] <= 127 (a < 2^255), which clamped X25519 and
/// Ed25519 scalars and every scalar reduced mod L meet.
///
/// Fixed-base, after ref10: a is recoded into 64 signed radix-16 digits
/// e_i in [-8, 8], and a·B = sum_i e_i·16^i·B is 64 mixed additions of
/// entries of a table holding j·16^i·B (j = 1..8) in affine form, with no
/// doubling. The table is built in-process on first use, once and
/// thread-safely. Each digit's entry is selected by a constant-time scan of
/// its row and negated by a conditional move, so the memory access pattern
/// and the operation sequence are independent of the scalar, as in the
/// Montgomery ladder.
Point base_mult(const std::array<std::uint8_t, 32>& scalar);

}  // namespace citymesh::cryptox::ge
