#include "cryptox/x25519.hpp"

#include "cryptox/edwards.hpp"
#include "cryptox/fe25519.hpp"

namespace citymesh::cryptox {

namespace {

X25519Key clamped(X25519Key e) {
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;
  return e;
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point) {
  using fe::Fe;

  const X25519Key e = clamped(scalar);

  const Fe x1 = fe::frombytes(u_point);
  Fe x2 = fe::one();
  Fe z2 = fe::zero();
  Fe x3 = x1;
  Fe z3 = fe::one();

  std::uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (e[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe::cswap(x2, x3, swap);
    fe::cswap(z2, z3, swap);
    swap = k_t;

    const Fe a = fe::add(x2, z2);
    const Fe aa = fe::sq(a);
    const Fe b = fe::sub(x2, z2);
    const Fe bb = fe::sq(b);
    const Fe e_ = fe::sub(aa, bb);
    const Fe c = fe::add(x3, z3);
    const Fe d = fe::sub(x3, z3);
    const Fe da = fe::mul(d, a);
    const Fe cb = fe::mul(c, b);
    x3 = fe::sq(fe::add(da, cb));
    z3 = fe::mul(x1, fe::sq(fe::sub(da, cb)));
    x2 = fe::mul(aa, bb);
    z2 = fe::mul(e_, fe::add(aa, fe::mul_small(e_, 121665)));
  }
  fe::cswap(x2, x3, swap);
  fe::cswap(z2, z3, swap);

  return fe::tobytes(fe::mul(x2, fe::invert(z2)));
}

X25519Key x25519_base(const X25519Key& scalar) {
  // a·B on the Edwards curve, then u = (1 + y)/(1 - y) = (Z + Y)/(Z - Y).
  // A clamped scalar is a multiple of 8 below 8L and not a multiple of L,
  // so a·B is never the identity and Z - Y is never zero.
  const ge::Point p = ge::base_mult(clamped(scalar));
  return fe::tobytes(fe::mul(fe::add(p.z, p.y), fe::invert(fe::sub(p.z, p.y))));
}

}  // namespace citymesh::cryptox
