// Ed25519 signatures (RFC 8032).
//
// Self-certifying CityMesh identities authenticate *messages* with the
// X25519+HMAC sealed format (sealed.hpp), but emergency bulletins need
// third-party verifiability: anyone holding the authority's public key (or
// its hash, distributed out-of-band pre-disaster) must be able to check a
// broadcast nobody encrypted for them. That is a signature scheme, so this
// module implements Ed25519 from its specification — Edwards-curve point
// arithmetic in extended coordinates over the shared fe25519 field, SHA-512
// hashing, and scalar arithmetic modulo the group order L.
//
// Every multiple of the base point (key derivation, the signature's R, the
// verifier's S·B) comes from the constant-time fixed-base table shared with
// X25519 key derivation (edwards.hpp). Verification's k·A, on public data
// only, is plain double-and-add. The test suite pins correctness to the
// RFC 8032 vectors.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace citymesh::cryptox {

using Ed25519Seed = std::array<std::uint8_t, 32>;
using Ed25519PublicKey = std::array<std::uint8_t, 32>;
using Ed25519Signature = std::array<std::uint8_t, 64>;

class Ed25519KeyPair {
 public:
  /// Deterministic key pair from explicit seed bytes (RFC 8032 "secret key").
  static Ed25519KeyPair from_seed_bytes(const Ed25519Seed& seed);

  /// Convenience: seed derived from a 64-bit value via the simulation RNG.
  static Ed25519KeyPair from_seed(std::uint64_t seed);

  const Ed25519PublicKey& public_key() const { return public_key_; }
  const Ed25519Seed& seed() const { return seed_; }

  Ed25519Signature sign(std::span<const std::uint8_t> message) const;
  Ed25519Signature sign(std::string_view message) const;

 private:
  Ed25519Seed seed_{};
  Ed25519PublicKey public_key_{};
};

/// Verify a signature. Returns false for malformed points, non-canonical
/// scalars, or a failed equation check.
bool ed25519_verify(const Ed25519PublicKey& public_key,
                    std::span<const std::uint8_t> message,
                    const Ed25519Signature& signature);
bool ed25519_verify(const Ed25519PublicKey& public_key, std::string_view message,
                    const Ed25519Signature& signature);

}  // namespace citymesh::cryptox
