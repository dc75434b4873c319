// Crypto substrate tests: SHA-256 / HMAC / HKDF against the FIPS & RFC 4231
// vectors, ChaCha20 against RFC 8439, X25519 against RFC 7748, plus the
// identity and sealed-message layers built on top.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cryptox/chacha20.hpp"
#include "cryptox/identity.hpp"
#include "cryptox/sealed.hpp"
#include "cryptox/sha256.hpp"
#include "cryptox/x25519.hpp"
#include "geo/rng.hpp"

namespace cryptox = citymesh::cryptox;
using citymesh::geo::Rng;

namespace {

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
    ADD_FAILURE() << "bad hex digit " << c;
    return 0;
  };
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

template <std::size_t N>
std::array<std::uint8_t, N> array_from_hex(std::string_view hex) {
  const auto bytes = from_hex(hex);
  EXPECT_EQ(bytes.size(), N);
  std::array<std::uint8_t, N> out{};
  std::copy_n(bytes.begin(), std::min(bytes.size(), N), out.begin());
  return out;
}

}  // namespace

// --------------------------------------------------------------- SHA-256 --

TEST(Sha256, EmptyString) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  cryptox::Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(cryptox::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding spills into a second block.
  const std::string msg(64, 'x');
  const auto one_shot = cryptox::Sha256::hash(msg);
  cryptox::Sha256 h;
  h.update(std::string_view{msg}.substr(0, 31));
  h.update(std::string_view{msg}.substr(31));
  EXPECT_EQ(h.finish(), one_shot);
}

TEST(Sha256, IncrementalEqualsOneShotAllSplitPoints) {
  const std::string msg = "The quick brown fox jumps over the lazy dog, repeatedly, "
                          "until the message spans multiple SHA-256 blocks in total.";
  const auto expected = cryptox::Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    cryptox::Sha256 h;
    h.update(std::string_view{msg}.substr(0, split));
    h.update(std::string_view{msg}.substr(split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

TEST(Sha256, ReuseAfterFinishThrows) {
  cryptox::Sha256 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

// ----------------------------------------------------------------- HMAC ---

TEST(HmacSha256, Rfc4231Case1) {
  const auto key = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const std::string data = "Hi There";
  const auto mac = cryptox::hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(cryptox::to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const auto mac = cryptox::hmac_sha256(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
      {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(cryptox::to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = cryptox::hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(cryptox::to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, DeterministicAndLabelSeparated) {
  const std::vector<std::uint8_t> ikm{1, 2, 3, 4};
  const auto a = cryptox::hkdf_sha256(ikm, "label-a", 44);
  const auto b = cryptox::hkdf_sha256(ikm, "label-a", 44);
  const auto c = cryptox::hkdf_sha256(ikm, "label-b", 44);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 44u);
}

TEST(Hkdf, MultiBlockExpansion) {
  const std::vector<std::uint8_t> ikm{9, 9, 9};
  const auto out = cryptox::hkdf_sha256(ikm, "x", 100);  // needs 4 HMAC blocks
  EXPECT_EQ(out.size(), 100u);
  // The first 32 bytes must equal the 32-byte derivation (prefix property).
  const auto short_out = cryptox::hkdf_sha256(ikm, "x", 32);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), out.begin()));
}

TEST(ToHex, Formatting) {
  const std::vector<std::uint8_t> bytes{0x00, 0xff, 0x0a};
  EXPECT_EQ(cryptox::to_hex(bytes), "00ff0a");
}

// -------------------------------------------------------------- ChaCha20 --

TEST(ChaCha20, Rfc8439BlockFunction) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000090000004a00000000");
  const auto block = cryptox::chacha20_block(key, nonce, 1);
  const auto expected = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), block.begin()));
}

TEST(ChaCha20, Rfc8439Encryption) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const auto ct = cryptox::chacha20_xor(
      key, nonce, 1,
      {reinterpret_cast<const std::uint8_t*>(plaintext.data()), plaintext.size()});
  const auto expected = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  EXPECT_EQ(ct, expected);
}

TEST(ChaCha20, XorIsInvolution) {
  const cryptox::ChaChaKey key{1, 2, 3};
  const cryptox::ChaChaNonce nonce{9, 9};
  const std::vector<std::uint8_t> data{10, 20, 30, 40, 50};
  const auto ct = cryptox::chacha20_xor(key, nonce, 0, data);
  EXPECT_NE(ct, data);
  EXPECT_EQ(cryptox::chacha20_xor(key, nonce, 0, ct), data);
}

TEST(ChaCha20, MultiBlockConsistency) {
  // Encrypting 200 bytes must equal per-block keystream XOR.
  const cryptox::ChaChaKey key{7};
  const cryptox::ChaChaNonce nonce{3};
  std::vector<std::uint8_t> data(200, 0);  // ciphertext of zeros = keystream
  const auto ks = cryptox::chacha20_xor(key, nonce, 5, data);
  const auto b0 = cryptox::chacha20_block(key, nonce, 5);
  const auto b1 = cryptox::chacha20_block(key, nonce, 6);
  EXPECT_TRUE(std::equal(b0.begin(), b0.end(), ks.begin()));
  EXPECT_TRUE(std::equal(b1.begin(), b1.end(), ks.begin() + 64));
}

TEST(ChaCha20, EmptyInput) {
  EXPECT_TRUE(cryptox::chacha20_xor({}, {}, 0, {}).empty());
}

// ---------------------------------------------------------------- X25519 --

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = array_from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = array_from_hex<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = cryptox::x25519(scalar, point);
  EXPECT_EQ(cryptox::to_hex(out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar = array_from_hex<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point = array_from_hex<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const auto out = cryptox::x25519(scalar, point);
  EXPECT_EQ(cryptox::to_hex(out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const auto alice_priv = array_from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv = array_from_hex<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto alice_pub = cryptox::x25519_base(alice_priv);
  const auto bob_pub = cryptox::x25519_base(bob_priv);
  EXPECT_EQ(cryptox::to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(cryptox::to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto k1 = cryptox::x25519(alice_priv, bob_pub);
  const auto k2 = cryptox::x25519(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(cryptox::to_hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, FixedBaseMatchesLadder) {
  // x25519_base takes the fixed-base Edwards table; x25519 at u = 9 is the
  // Montgomery ladder. They must agree on every scalar.
  cryptox::X25519Key base_u{};
  base_u[0] = 9;
  const auto check = [&](const cryptox::X25519Key& k) {
    EXPECT_EQ(cryptox::x25519_base(k), cryptox::x25519(k, base_u)) << cryptox::to_hex(k);
  };
  Rng rng{0x25519};
  for (int i = 0; i < 1000; ++i) {
    cryptox::X25519Key k;
    for (auto& byte : k) byte = static_cast<std::uint8_t>(rng.next());
    check(k);
  }
  // Edge scalars: all zeros, all ones, and every radix-16 digit at the
  // recoding's extremes (8 carries into the next digit, 7 does not).
  for (const std::uint8_t fill : {0x00, 0xFF, 0x88, 0x77, 0xF0, 0x0F, 0x80, 0x08}) {
    cryptox::X25519Key k;
    k.fill(fill);
    check(k);
  }
  // Scalars that differ only in the clamped bits (0-2 of byte 0, 6-7 of
  // byte 31) are one key.
  cryptox::X25519Key k;
  for (auto& byte : k) byte = static_cast<std::uint8_t>(rng.next());
  const auto expected = cryptox::x25519(k, base_u);
  for (std::uint8_t low = 0; low < 8; ++low) {
    for (std::uint8_t high = 0; high < 4; ++high) {
      cryptox::X25519Key variant = k;
      variant[0] = static_cast<std::uint8_t>((variant[0] & 0xF8) | low);
      variant[31] = static_cast<std::uint8_t>((variant[31] & 0x3F) | (high << 6));
      EXPECT_EQ(cryptox::x25519_base(variant), expected);
    }
  }
}

class X25519Property : public ::testing::TestWithParam<int> {};

TEST_P(X25519Property, DhSharedSecretsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto a = cryptox::KeyPair::from_seed(seed * 2 + 1);
  const auto b = cryptox::KeyPair::from_seed(seed * 2 + 2);
  EXPECT_EQ(a.shared_secret(b.public_key()), b.shared_secret(a.public_key()));
  EXPECT_NE(a.public_key(), b.public_key());
}

INSTANTIATE_TEST_SUITE_P(Seeds, X25519Property, ::testing::Range(0, 8));

// -------------------------------------------------------------- Identity --

TEST(Identity, IdIsHashOfPublicKey) {
  const auto keys = cryptox::KeyPair::from_seed(1);
  const auto expected = cryptox::Sha256::hash(keys.public_key());
  EXPECT_EQ(keys.id().bytes, expected);
  EXPECT_EQ(cryptox::id_of(keys.public_key()).bytes, expected);
}

TEST(Identity, TagIsIdPrefix) {
  const auto keys = cryptox::KeyPair::from_seed(2);
  const auto& b = keys.id().bytes;
  const std::uint32_t expected = (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                                 (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
  EXPECT_EQ(keys.id().tag(), expected);
}

TEST(Identity, DeterministicFromSeed) {
  const auto a = cryptox::KeyPair::from_seed(77);
  const auto b = cryptox::KeyPair::from_seed(77);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_EQ(a.private_key(), b.private_key());
  EXPECT_EQ(a.id(), b.id());
}

TEST(Identity, HexIs64Chars) {
  EXPECT_EQ(cryptox::KeyPair::from_seed(3).id().hex().size(), 64u);
}

// ---------------------------------------------------------------- Sealed --

TEST(Sealed, RoundTrip) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const auto sealed = cryptox::seal(alice, bob.public_key(), "hello bob", 1234);
  const auto text = cryptox::unseal_text(bob, sealed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "hello bob");
  EXPECT_EQ(sealed.sender_id, alice.id());
  EXPECT_EQ(sealed.recipient_id, bob.id());
}

TEST(Sealed, WrongRecipientFails) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const auto eve = cryptox::KeyPair::from_seed(12);
  const auto sealed = cryptox::seal(alice, bob.public_key(), "secret", 55);
  EXPECT_FALSE(cryptox::unseal(eve, sealed).has_value());
}

TEST(Sealed, CiphertextHidesPlaintext) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const std::string msg = "attack at dawn";
  const auto sealed = cryptox::seal(alice, bob.public_key(), msg, 99);
  const std::string ct{sealed.ciphertext.begin(), sealed.ciphertext.end()};
  EXPECT_EQ(sealed.ciphertext.size(), msg.size());
  EXPECT_EQ(ct.find(msg), std::string::npos);
}

TEST(Sealed, TamperedCiphertextRejected) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  auto sealed = cryptox::seal(alice, bob.public_key(), "pay $100 to carol", 7);
  sealed.ciphertext[3] ^= 0x01;
  EXPECT_FALSE(cryptox::unseal(bob, sealed).has_value());
}

TEST(Sealed, TamperedTagRejected) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  auto sealed = cryptox::seal(alice, bob.public_key(), "x", 8);
  sealed.tag[0] ^= 0xFF;
  EXPECT_FALSE(cryptox::unseal(bob, sealed).has_value());
}

TEST(Sealed, TamperedSenderIdRejected) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  auto sealed = cryptox::seal(alice, bob.public_key(), "x", 9);
  sealed.sender_id.bytes[0] ^= 0x01;  // impersonation attempt
  EXPECT_FALSE(cryptox::unseal(bob, sealed).has_value());
}

TEST(Sealed, SerializationRoundTrip) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const auto sealed = cryptox::seal(alice, bob.public_key(), "serialize me", 21);
  const auto bytes = sealed.serialize();
  const auto parsed = cryptox::SealedMessage::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, sealed);
  const auto text = cryptox::unseal_text(bob, *parsed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "serialize me");
}

TEST(Sealed, DeserializeRejectsShortBuffer) {
  const std::vector<std::uint8_t> tiny(100, 0);
  EXPECT_FALSE(cryptox::SealedMessage::deserialize(tiny).has_value());
}

TEST(Sealed, EmptyPlaintext) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const auto sealed = cryptox::seal(alice, bob.public_key(), "", 33);
  const auto out = cryptox::unseal(bob, sealed);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Sealed, DifferentEphemeralSeedsDifferentCiphertext) {
  const auto alice = cryptox::KeyPair::from_seed(10);
  const auto bob = cryptox::KeyPair::from_seed(11);
  const auto s1 = cryptox::seal(alice, bob.public_key(), "same text", 1);
  const auto s2 = cryptox::seal(alice, bob.public_key(), "same text", 2);
  EXPECT_NE(s1.ciphertext, s2.ciphertext);
  EXPECT_NE(s1.ephemeral_public, s2.ephemeral_public);
}

class SealedProperty : public ::testing::TestWithParam<int> {};

TEST_P(SealedProperty, RandomPayloadRoundTrip) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 500};
  const auto alice = cryptox::KeyPair::from_seed(rng.next());
  const auto bob = cryptox::KeyPair::from_seed(rng.next());
  std::vector<std::uint8_t> payload(rng.uniform_int(2000));
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
  const auto sealed = cryptox::seal(alice, bob.public_key(), payload, rng.next());
  const auto out = cryptox::unseal(bob, sealed);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SealedProperty, ::testing::Range(0, 10));

// --------------------------------------------------------------- SHA-512 --

#include "cryptox/sha512.hpp"

TEST(Sha512, EmptyString) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha512::hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha512::hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(cryptox::to_hex(cryptox::Sha512::hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalEqualsOneShot) {
  const std::string msg(517, 'q');  // spans > 4 blocks with odd remainder
  const auto expected = cryptox::Sha512::hash(msg);
  for (std::size_t split : {0u, 1u, 111u, 128u, 250u, 517u}) {
    cryptox::Sha512 h;
    h.update(std::string_view{msg}.substr(0, split));
    h.update(std::string_view{msg}.substr(split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

TEST(Sha512, PaddingBoundaries) {
  // Lengths around the 112-byte padding threshold and the block size.
  for (std::size_t len : {111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
    const std::string msg(len, 'z');
    const auto once = cryptox::Sha512::hash(msg);
    cryptox::Sha512 h;
    for (const char c : msg) h.update(std::string_view{&c, 1});
    EXPECT_EQ(h.finish(), once) << "len=" << len;
  }
}

TEST(Sha512, ReuseAfterFinishThrows) {
  cryptox::Sha512 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.update("x"), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
}

// --------------------------------------------------------------- Ed25519 --

#include "cryptox/ed25519.hpp"

namespace {

cryptox::Ed25519Seed ed_seed(std::string_view hex) {
  return array_from_hex<32>(hex);
}

}  // namespace

TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed_bytes(ed_seed(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  EXPECT_EQ(cryptox::to_hex(kp.public_key()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = kp.sign(std::string_view{""});
  EXPECT_EQ(cryptox::to_hex(sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(cryptox::ed25519_verify(kp.public_key(), std::string_view{""}, sig));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed_bytes(ed_seed(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  EXPECT_EQ(cryptox::to_hex(kp.public_key()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const std::uint8_t msg[1] = {0x72};
  const auto sig = kp.sign(std::span<const std::uint8_t>{msg, 1});
  EXPECT_EQ(cryptox::to_hex(sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(
      cryptox::ed25519_verify(kp.public_key(), std::span<const std::uint8_t>{msg, 1}, sig));
}

TEST(Ed25519, Rfc8032Test3TwoBytes) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed_bytes(ed_seed(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"));
  EXPECT_EQ(cryptox::to_hex(kp.public_key()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const std::uint8_t msg[2] = {0xaf, 0x82};
  const auto sig = kp.sign(std::span<const std::uint8_t>{msg, 2});
  EXPECT_EQ(cryptox::to_hex(sig),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(
      cryptox::ed25519_verify(kp.public_key(), std::span<const std::uint8_t>{msg, 2}, sig));
}

TEST(Ed25519, TamperedMessageRejected) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed(42);
  const auto sig = kp.sign(std::string_view{"original"});
  EXPECT_TRUE(cryptox::ed25519_verify(kp.public_key(), std::string_view{"original"}, sig));
  EXPECT_FALSE(cryptox::ed25519_verify(kp.public_key(), std::string_view{"Original"}, sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed(43);
  auto sig = kp.sign(std::string_view{"msg"});
  sig[5] ^= 0x01;
  EXPECT_FALSE(cryptox::ed25519_verify(kp.public_key(), std::string_view{"msg"}, sig));
}

TEST(Ed25519, WrongKeyRejected) {
  const auto a = cryptox::Ed25519KeyPair::from_seed(44);
  const auto b = cryptox::Ed25519KeyPair::from_seed(45);
  const auto sig = a.sign(std::string_view{"msg"});
  EXPECT_FALSE(cryptox::ed25519_verify(b.public_key(), std::string_view{"msg"}, sig));
}

TEST(Ed25519, NonCanonicalScalarRejected) {
  const auto kp = cryptox::Ed25519KeyPair::from_seed(46);
  auto sig = kp.sign(std::string_view{"msg"});
  // Force S >= L by setting the top byte of S to 0xFF.
  sig[63] = 0xFF;
  EXPECT_FALSE(cryptox::ed25519_verify(kp.public_key(), std::string_view{"msg"}, sig));
}

TEST(Ed25519, GarbagePublicKeyRejected) {
  cryptox::Ed25519PublicKey bogus{};
  bogus.fill(0xFF);  // y >= p: non-canonical
  const auto kp = cryptox::Ed25519KeyPair::from_seed(47);
  const auto sig = kp.sign(std::string_view{"msg"});
  EXPECT_FALSE(cryptox::ed25519_verify(bogus, std::string_view{"msg"}, sig));
}

class Ed25519Property : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Property, SignVerifyRandomMessages) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 7000};
  const auto kp = cryptox::Ed25519KeyPair::from_seed(rng.next());
  std::vector<std::uint8_t> msg(rng.uniform_int(300));
  for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
  const auto sig = kp.sign(msg);
  EXPECT_TRUE(cryptox::ed25519_verify(kp.public_key(), msg, sig));
  if (!msg.empty()) {
    msg[rng.uniform_int(msg.size())] ^= 0x80;
    EXPECT_FALSE(cryptox::ed25519_verify(kp.public_key(), msg, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519Property, ::testing::Range(0, 8));

// The windowed double-scalar verifier against the earlier bit-by-bit one,
// kept as ed25519_verify_reference: identical accept/reject on a seeded
// corpus of valid signatures, tampered ones (message, R, S, key) and
// non-canonical encodings (S + L, y >= p in R and in the key, -0 in R).
TEST(Ed25519, WindowedVerifyMatchesReferenceOnSeededCorpus) {
  Rng rng{0xed25519};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const cryptox::Ed25519PublicKey& key,
                         const std::vector<std::uint8_t>& msg,
                         const cryptox::Ed25519Signature& sig, const std::string& what) {
    const bool fast = cryptox::ed25519_verify(key, msg, sig);
    EXPECT_EQ(fast, cryptox::ed25519_verify_reference(key, msg, sig)) << what;
    ++(fast ? accepted : rejected);
  };
  // L, little-endian, for the S + L encodings.
  const std::array<std::uint8_t, 32> order = array_from_hex<32>(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  for (int i = 0; i < 48; ++i) {
    const auto kp = cryptox::Ed25519KeyPair::from_seed(rng.next());
    std::vector<std::uint8_t> msg(rng.uniform_int(200));
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    const auto sig = kp.sign(msg);
    const std::string tag = "corpus " + std::to_string(i);
    check(kp.public_key(), msg, sig, tag + " valid");

    auto flipped = msg;
    flipped.push_back(static_cast<std::uint8_t>(rng.next()));
    check(kp.public_key(), flipped, sig, tag + " message");
    auto bad_r = sig;
    bad_r[rng.uniform_int(32)] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    check(kp.public_key(), msg, bad_r, tag + " R");
    auto bad_s = sig;
    bad_s[32 + rng.uniform_int(31)] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    check(kp.public_key(), msg, bad_s, tag + " S");
    auto bad_key = kp.public_key();
    bad_key[rng.uniform_int(32)] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    check(bad_key, msg, sig, tag + " key");

    // S + L: the same scalar mod L, non-canonical, so rejected.
    auto s_plus_l = sig;
    unsigned carry = 0;
    for (std::size_t b = 0; b < 32; ++b) {
      const unsigned sum = s_plus_l[32 + b] + order[b] + carry;
      s_plus_l[32 + b] = static_cast<std::uint8_t>(sum);
      carry = sum >> 8;
    }
    check(kp.public_key(), msg, s_plus_l, tag + " S+L");
  }
  // y >= p (2^255 - 19 .. 2^255 - 1) in R and in the key, and R = -0 (the
  // points x = 0, y = +-1 with the sign bit set).
  const auto kp = cryptox::Ed25519KeyPair::from_seed(77);
  const std::vector<std::uint8_t> msg{1, 2, 3};
  const auto sig = kp.sign(msg);
  for (std::uint8_t low = 0xed; low != 0x00; ++low) {
    std::array<std::uint8_t, 32> y{};
    y.fill(0xff);
    y[0] = low;
    y[31] = 0x7f;
    auto bad_r = sig;
    std::copy(y.begin(), y.end(), bad_r.begin());
    check(kp.public_key(), msg, bad_r, "R y >= p");
    check(y, msg, sig, "key y >= p");
  }
  for (const std::uint8_t y0 : {std::uint8_t{0x01}, std::uint8_t{0xec}}) {
    std::array<std::uint8_t, 32> neg_zero{};
    if (y0 == 0x01) {
      neg_zero[0] = 0x01;  // y = 1
    } else {
      neg_zero.fill(0xff);  // y = p - 1 = -1
      neg_zero[0] = 0xec;
    }
    neg_zero[31] |= 0x80;
    auto bad_r = sig;
    std::copy(neg_zero.begin(), neg_zero.end(), bad_r.begin());
    check(kp.public_key(), msg, bad_r, "R -0");
  }
  EXPECT_EQ(accepted, 48u);
  EXPECT_GT(rejected, 48u * 5);
}

// ---------------------------------------------- fe25519 field properties --

#include "cryptox/fe25519.hpp"

namespace fe = citymesh::cryptox::fe;

namespace {

fe::Fe random_fe(Rng& rng) {
  fe::Bytes32 bytes;
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  bytes[31] &= 0x7F;
  return fe::frombytes(bytes);
}

bool fe_eq(const fe::Fe& a, const fe::Fe& b) { return fe::tobytes(a) == fe::tobytes(b); }

}  // namespace

class FieldProperty : public ::testing::TestWithParam<int> {};

TEST_P(FieldProperty, RingAxiomsHold) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 31337};
  const auto a = random_fe(rng);
  const auto b = random_fe(rng);
  const auto c = random_fe(rng);
  // Commutativity and associativity of multiplication.
  EXPECT_TRUE(fe_eq(fe::mul(a, b), fe::mul(b, a)));
  EXPECT_TRUE(fe_eq(fe::mul(fe::mul(a, b), c), fe::mul(a, fe::mul(b, c))));
  // Distributivity: (a + b) * c == a*c + b*c.
  EXPECT_TRUE(fe_eq(fe::mul(fe::add(a, b), c), fe::add(fe::mul(a, c), fe::mul(b, c))));
  // Squaring is self-multiplication.
  EXPECT_TRUE(fe_eq(fe::sq(a), fe::mul(a, a)));
  // Additive inverse: a + (-a) == 0.
  EXPECT_TRUE(fe::is_zero(fe::add(a, fe::neg(a))));
  // Negation of an *unreduced* chain value (the historical fe::neg bug).
  const auto chain = fe::sub(fe::sq(a), fe::one());
  EXPECT_TRUE(fe::is_zero(fe::add(chain, fe::neg(chain))));
  // Multiplicative inverse: a * a^-1 == 1 (unless a == 0).
  if (!fe::is_zero(a)) {
    EXPECT_TRUE(fe_eq(fe::mul(a, fe::invert(a)), fe::one()));
  }
  // Subtraction: (a - b) + b == a.
  EXPECT_TRUE(fe_eq(fe::add(fe::sub(a, b), b), a));
}

TEST_P(FieldProperty, SerializationRoundTrip) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 91};
  const auto a = random_fe(rng);
  EXPECT_TRUE(fe_eq(fe::frombytes(fe::tobytes(a)), a));
}

TEST_P(FieldProperty, Pow22523MatchesDefinition) {
  // z^(2^252-3) squared 3 times times z^5 should equal z^(2^255-19) = z...
  // simpler: (z^((p-5)/8))^8 * z^5 == z^(p-5+5) = z^p = z^(p-1) * z == z
  // for nonzero z (Fermat).
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 577};
  const auto z = random_fe(rng);
  if (fe::is_zero(z)) return;
  auto t = fe::pow22523(z);
  for (int i = 0; i < 3; ++i) t = fe::sq(t);  // ^8
  auto z5 = fe::mul(fe::mul(fe::sq(fe::sq(z)), z), fe::one());  // z^5
  EXPECT_TRUE(fe_eq(fe::mul(t, z5), z));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldProperty, ::testing::Range(0, 12));
