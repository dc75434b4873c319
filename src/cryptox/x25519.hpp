// X25519 Diffie-Hellman over Curve25519 (RFC 7748).
//
// Self-certifying CityMesh identities are X25519 key pairs: the postbox id
// is SHA-256 of the public key, and sealed messages derive their symmetric
// key from an ephemeral-static X25519 exchange (ECIES-style, see
// sealed.hpp). Field arithmetic uses 5x51-bit limbs with 128-bit products
// (the "donna-c64" representation). Verified against the RFC 7748 vectors.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace citymesh::cryptox {

using X25519Key = std::array<std::uint8_t, 32>;

/// Scalar multiplication: out = scalar * point (u-coordinate form).
/// The scalar is clamped per RFC 7748 before use.
X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point);

/// scalar * base point (u = 9); derives a public key from a private key.
/// Equal to x25519(scalar, 9), computed by the fixed-base table on the
/// birationally equivalent Edwards curve (cryptox/edwards.hpp): constant
/// time, like the ladder, at a fraction of its cost.
X25519Key x25519_base(const X25519Key& scalar);

}  // namespace citymesh::cryptox
