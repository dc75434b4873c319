#include "cryptox/ed25519.hpp"

#include <cstring>

#include "cryptox/edwards.hpp"
#include "cryptox/fe25519.hpp"
#include "cryptox/sha512.hpp"
#include "geo/rng.hpp"

__extension__ using u128_ed = unsigned __int128;

namespace citymesh::cryptox {

namespace {

using fe::Fe;

using ge::Point;

// scalar (32 bytes little-endian, treated as a plain integer) * point, by
// variable-time double-and-add (ed25519_verify_reference only).
Point scalar_mult(const std::array<std::uint8_t, 32>& scalar, const Point& p) {
  Point acc = ge::identity();
  for (int i = 255; i >= 0; --i) {
    acc = ge::dbl(acc);
    if ((scalar[i / 8] >> (i % 8)) & 1) acc = ge::add(acc, p);
  }
  return acc;
}

Point negate(const Point& p) { return {fe::neg(p.x), p.y, p.z, fe::neg(p.t)}; }

// Width-5 signed digits (w-NAF) of a 32-byte little-endian scalar below
// 2^255: value = sum_i digits[i]·2^i, each digit 0 or odd in [-15, 15], and
// any two nonzero digits at least five positions apart.
std::array<std::int8_t, 257> wnaf5(const std::array<std::uint8_t, 32>& scalar) {
  std::array<std::uint64_t, 5> k{};
  for (std::size_t i = 0; i < 32; ++i) k[i / 8] |= std::uint64_t{scalar[i]} << (8 * (i % 8));
  std::array<std::int8_t, 257> digits{};
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (k[0] & 1) {
      int d = static_cast<int>(k[0] & 31);
      if (d >= 16) d -= 32;
      digits[i] = static_cast<std::int8_t>(d);
      if (d > 0) {
        k[0] -= static_cast<std::uint64_t>(d);  // low five bits were d: no borrow
      } else {
        std::uint64_t carry = static_cast<std::uint64_t>(-d);
        for (std::size_t limb = 0; limb < k.size() && carry != 0; ++limb) {
          k[limb] += carry;
          carry = k[limb] < carry ? 1 : 0;
        }
      }
    }
    for (std::size_t limb = 0; limb + 1 < k.size(); ++limb) {
      k[limb] = (k[limb] >> 1) | (k[limb + 1] << 63);
    }
    k[k.size() - 1] >>= 1;
  }
  return digits;
}

// p, 3p, 5p, ..., 15p: the odd multiples a width-5 digit selects.
std::array<Point, 8> odd_multiples(const Point& p) {
  std::array<Point, 8> table;
  table[0] = p;
  const Point p2 = ge::dbl(p);
  for (std::size_t i = 1; i < table.size(); ++i) table[i] = ge::add(table[i - 1], p2);
  return table;
}

void add_digit(Point& acc, const std::array<Point, 8>& table, int digit) {
  if (digit > 0) acc = ge::add(acc, table[static_cast<std::size_t>(digit / 2)]);
  if (digit < 0) acc = ge::add(acc, negate(table[static_cast<std::size_t>(-digit / 2)]));
}

// a·B + b·P, variable time (public inputs only): Straus's interleaving of
// the two width-5 recodings, one shared doubling per bit.
Point double_scalar_mult(const std::array<std::uint8_t, 32>& a,
                         const std::array<std::uint8_t, 32>& b, const Point& p) {
  static const std::array<Point, 8> base_table = odd_multiples(ge::base_point());
  const std::array<Point, 8> p_table = odd_multiples(p);
  const auto a_digits = wnaf5(a);
  const auto b_digits = wnaf5(b);
  int top = static_cast<int>(a_digits.size()) - 1;
  while (top >= 0 && a_digits[static_cast<std::size_t>(top)] == 0 &&
         b_digits[static_cast<std::size_t>(top)] == 0) {
    --top;
  }
  Point acc = ge::identity();
  for (int i = top; i >= 0; --i) {
    acc = ge::dbl(acc);
    add_digit(acc, base_table, a_digits[static_cast<std::size_t>(i)]);
    add_digit(acc, p_table, b_digits[static_cast<std::size_t>(i)]);
  }
  return acc;
}

std::array<std::uint8_t, 32> encode(const Point& p) {
  const Fe zinv = fe::invert(p.z);
  const Fe x = fe::mul(p.x, zinv);
  const Fe y = fe::mul(p.y, zinv);
  auto out = fe::tobytes(y);
  if (fe::is_negative(x)) out[31] |= 0x80;
  return out;
}

// Decompress per RFC 8032 §5.1.3; nullopt for invalid encodings.
std::optional<Point> decode(const std::array<std::uint8_t, 32>& bytes) {
  auto y_bytes = bytes;
  const bool x_sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7F;
  const Fe y = fe::frombytes(y_bytes);
  // Reject non-canonical y (>= p). frombytes masks to 255 bits; re-encode
  // and compare to detect values in [p, 2^255).
  if (fe::tobytes(y) != y_bytes) return std::nullopt;

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const Fe y2 = fe::sq(y);
  const Fe u = fe::sub(y2, fe::one());
  const Fe v = fe::add(fe::mul(fe::kD, y2), fe::one());
  // candidate x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe::mul(fe::sq(v), v);
  const Fe v7 = fe::mul(fe::sq(v3), v);
  Fe x = fe::mul(fe::mul(u, v3), fe::pow22523(fe::mul(u, v7)));

  const Fe vx2 = fe::mul(v, fe::sq(x));
  if (!fe::equal(vx2, u)) {
    if (fe::equal(vx2, fe::neg(u))) {
      x = fe::mul(x, fe::kSqrtM1);
    } else {
      return std::nullopt;  // not a square: invalid point
    }
  }
  if (fe::is_zero(x) && x_sign) return std::nullopt;  // -0 is non-canonical
  if (fe::is_negative(x) != x_sign) x = fe::neg(x);
  return Point{x, y, fe::one(), fe::mul(x, y)};
}

// ---- Scalar arithmetic modulo L = 2^252 + delta ---------------------------

constexpr std::array<std::uint64_t, 4> kL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                             0x0ULL, 0x1000000000000000ULL};

using Sc = std::array<std::uint64_t, 4>;  // 256-bit little-endian limbs

bool sc_gte(const Sc& a, const Sc& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

void sc_sub_inplace(Sc& a, const Sc& b) {
  u128_ed borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128_ed diff = static_cast<u128_ed>(a[i]) - b[i] - borrow;
    a[i] = static_cast<std::uint64_t>(diff);
    borrow = (diff >> 64) & 1;  // two's-complement borrow
  }
}

/// Reduce an n-byte little-endian integer modulo L via binary long division.
/// Inputs are at most 512 bits; r stays below 2L < 2^254 throughout.
Sc sc_mod(std::span<const std::uint8_t> bytes) {
  Sc r{};
  for (std::size_t i = bytes.size() * 8; i-- > 0;) {
    // r <<= 1
    for (int limb = 3; limb > 0; --limb) {
      r[limb] = (r[limb] << 1) | (r[limb - 1] >> 63);
    }
    r[0] <<= 1;
    r[0] |= (bytes[i / 8] >> (i % 8)) & 1;
    if (sc_gte(r, kL)) sc_sub_inplace(r, kL);
  }
  return r;
}

std::array<std::uint8_t, 32> sc_tobytes(const Sc& s) {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[i * 8 + j] = static_cast<std::uint8_t>(s[i] >> (8 * j));
    }
  }
  return out;
}

Sc sc_frombytes(const std::array<std::uint8_t, 32>& b) {
  Sc s{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      s[i] |= static_cast<std::uint64_t>(b[i * 8 + j]) << (8 * j);
    }
  }
  return s;
}

/// (a * b + c) mod L; all inputs already < 2^256.
Sc sc_muladd(const Sc& a, const Sc& b, const Sc& c) {
  // Schoolbook 4x4 multiply into 8 limbs.
  std::array<std::uint64_t, 8> prod{};
  for (int i = 0; i < 4; ++i) {
    u128_ed carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<u128_ed>(a[i]) * b[j] + prod[i + j];
      prod[i + j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    prod[i + 4] = static_cast<std::uint64_t>(carry);
  }
  // Add c.
  u128_ed carry = 0;
  for (int i = 0; i < 8; ++i) {
    carry += prod[i];
    if (i < 4) carry += c[i];
    prod[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  // Serialize and reduce.
  std::array<std::uint8_t, 64> bytes;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      bytes[i * 8 + j] = static_cast<std::uint8_t>(prod[i] >> (8 * j));
    }
  }
  return sc_mod(bytes);
}

std::array<std::uint8_t, 32> hash_mod_l(std::span<const std::uint8_t> a,
                                        std::span<const std::uint8_t> b,
                                        std::span<const std::uint8_t> c) {
  Sha512 h;
  h.update(a);
  h.update(b);
  h.update(c);
  const Digest512 digest = h.finish();
  return sc_tobytes(sc_mod(digest));
}

struct ExpandedSecret {
  std::array<std::uint8_t, 32> scalar;  // clamped s
  std::array<std::uint8_t, 32> prefix;
};

ExpandedSecret expand(const Ed25519Seed& seed) {
  const Digest512 h = Sha512::hash(seed);
  ExpandedSecret out;
  std::memcpy(out.scalar.data(), h.data(), 32);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  out.scalar[0] &= 248;
  out.scalar[31] &= 63;
  out.scalar[31] |= 64;
  return out;
}

}  // namespace

Ed25519KeyPair Ed25519KeyPair::from_seed_bytes(const Ed25519Seed& seed) {
  Ed25519KeyPair kp;
  kp.seed_ = seed;
  const ExpandedSecret secret = expand(seed);
  kp.public_key_ = encode(ge::base_mult(secret.scalar));
  return kp;
}

Ed25519KeyPair Ed25519KeyPair::from_seed(std::uint64_t seed) {
  geo::Rng rng{seed ^ 0xED25519ULL};
  Ed25519Seed bytes{};
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    const std::uint64_t word = rng.next();
    for (std::size_t j = 0; j < 8; ++j) {
      bytes[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return from_seed_bytes(bytes);
}

Ed25519Signature Ed25519KeyPair::sign(std::span<const std::uint8_t> message) const {
  const ExpandedSecret secret = expand(seed_);

  // r = H(prefix || M) mod L;  R = rB.
  Sha512 hr;
  hr.update(secret.prefix);
  hr.update(message);
  const auto r = sc_tobytes(sc_mod(hr.finish()));
  const auto r_enc = encode(ge::base_mult(r));

  // k = H(R || A || M) mod L;  S = (r + k*s) mod L.
  const auto k = hash_mod_l(r_enc, public_key_, message);
  const Sc s_scalar = sc_frombytes(secret.scalar);
  const Sc big_s = sc_muladd(sc_frombytes(k), s_scalar, sc_frombytes(r));

  Ed25519Signature sig{};
  std::memcpy(sig.data(), r_enc.data(), 32);
  const auto s_bytes = sc_tobytes(big_s);
  std::memcpy(sig.data() + 32, s_bytes.data(), 32);
  return sig;
}

Ed25519Signature Ed25519KeyPair::sign(std::string_view message) const {
  return sign(std::span{reinterpret_cast<const std::uint8_t*>(message.data()),
                        message.size()});
}

bool ed25519_verify(const Ed25519PublicKey& public_key,
                    std::span<const std::uint8_t> message,
                    const Ed25519Signature& signature) {
  std::array<std::uint8_t, 32> r_enc;
  std::array<std::uint8_t, 32> s_bytes;
  std::memcpy(r_enc.data(), signature.data(), 32);
  std::memcpy(s_bytes.data(), signature.data() + 32, 32);

  // S must be canonical (< L).
  const Sc s = sc_frombytes(s_bytes);
  if (sc_gte(s, kL)) return false;

  const auto a_point = decode(public_key);
  if (!a_point) return false;

  const auto k = hash_mod_l(r_enc, public_key, message);

  // S·B == R + k·A (cofactorless, as the reference) holds exactly when
  // S·B − k·A encodes to R's bytes: encoding is injective on points, and
  // R's bytes are the encoding of the point they decode to. Bytes that do
  // not decode (non-canonical y, -0, y off the curve) are no point's
  // encoding, so they are rejected here as decode would reject them.
  return encode(double_scalar_mult(s_bytes, k, negate(*a_point))) == r_enc;
}

bool ed25519_verify_reference(const Ed25519PublicKey& public_key,
                              std::span<const std::uint8_t> message,
                              const Ed25519Signature& signature) {
  std::array<std::uint8_t, 32> r_enc;
  std::array<std::uint8_t, 32> s_bytes;
  std::memcpy(r_enc.data(), signature.data(), 32);
  std::memcpy(s_bytes.data(), signature.data() + 32, 32);

  // S must be canonical (< L).
  const Sc s = sc_frombytes(s_bytes);
  if (sc_gte(s, kL)) return false;

  const auto a_point = decode(public_key);
  if (!a_point) return false;
  const auto r_point = decode(r_enc);
  if (!r_point) return false;

  const auto k = hash_mod_l(r_enc, public_key, message);

  // Check S*B == R + k*A (cofactorless variant; fine for honestly generated
  // keys, which is all the simulation produces).
  const Point lhs = ge::base_mult(s_bytes);
  const Point rhs = ge::add(*r_point, scalar_mult(k, *a_point));
  return encode(lhs) == encode(rhs);
}

bool ed25519_verify(const Ed25519PublicKey& public_key, std::string_view message,
                    const Ed25519Signature& signature) {
  return ed25519_verify(
      public_key,
      std::span{reinterpret_cast<const std::uint8_t*>(message.data()), message.size()},
      signature);
}

}  // namespace citymesh::cryptox
