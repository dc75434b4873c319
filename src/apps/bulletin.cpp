#include "apps/bulletin.hpp"

#include <cstring>

namespace citymesh::apps {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return true;
  }
  bool f64(double& v) {
    if (pos_ + 8 > data_.size()) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool byte(std::uint8_t& v) {
    if (pos_ >= data_.size()) return false;
    v = data_[pos_++];
    return true;
  }
  bool string(std::string& s, std::uint32_t max_len = 1 << 20) {
    std::uint32_t len = 0;
    if (!u32(len) || len > max_len || pos_ + len > data_.size()) return false;
    s.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  template <std::size_t N>
  bool bytes(std::array<std::uint8_t, N>& out) {
    if (pos_ + N > data_.size()) return false;
    std::memcpy(out.data(), data_.data() + pos_, N);
    pos_ += N;
    return true;
  }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::kAdvisory: return "advisory";
    case Severity::kWarning: return "warning";
    case Severity::kEvacuate: return "evacuate";
  }
  return "unknown";
}

std::vector<std::uint8_t> Bulletin::signed_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + title.size() + body.size());
  put_u32(out, sequence);
  put_f64(out, issued_at_s);
  out.push_back(static_cast<std::uint8_t>(severity));
  put_u32(out, center);
  put_u32(out, radius_m);
  put_string(out, title);
  put_string(out, body);
  out.insert(out.end(), authority.begin(), authority.end());
  return out;
}

std::vector<std::uint8_t> Bulletin::serialize() const {
  auto out = signed_bytes();
  out.insert(out.end(), signature.begin(), signature.end());
  return out;
}

std::optional<Bulletin> Bulletin::deserialize(std::span<const std::uint8_t> bytes) {
  Cursor cur{bytes};
  Bulletin b;
  std::uint8_t severity_byte = 0;
  if (!cur.u32(b.sequence) || !cur.f64(b.issued_at_s) || !cur.byte(severity_byte) ||
      !cur.u32(b.center) || !cur.u32(b.radius_m) || !cur.string(b.title) ||
      !cur.string(b.body) || !cur.bytes(b.authority) || !cur.bytes(b.signature) ||
      !cur.at_end()) {
    return std::nullopt;
  }
  if (severity_byte > static_cast<std::uint8_t>(Severity::kEvacuate)) return std::nullopt;
  b.severity = static_cast<Severity>(severity_byte);
  return b;
}

bool Bulletin::signature_valid() const {
  return cryptox::ed25519_verify(authority, signed_bytes(), signature);
}

Bulletin BulletinAuthority::issue(Severity severity, osmx::BuildingId center,
                                  std::uint32_t radius_m, std::string title,
                                  std::string body, double issued_at_s) {
  Bulletin b;
  b.sequence = next_sequence_++;
  b.issued_at_s = issued_at_s;
  b.severity = severity;
  b.center = center;
  b.radius_m = radius_m;
  b.title = std::move(title);
  b.body = std::move(body);
  b.authority = keys_.public_key();
  b.signature = keys_.sign(b.signed_bytes());
  return b;
}

void BulletinVerifier::trust(const cryptox::Digest256& authority_id) {
  trusted_.insert(authority_id);
}

std::pair<BulletinVerifier::Result, std::optional<Bulletin>> BulletinVerifier::accept(
    std::span<const std::uint8_t> bytes) {
  auto parsed = Bulletin::deserialize(bytes);
  if (!parsed) return {Result::kMalformed, std::nullopt};
  const auto authority_id = cryptox::Sha256::hash(parsed->authority);
  if (!trusted_.contains(authority_id)) {
    return {Result::kUntrustedAuthority, std::nullopt};
  }
  if (!parsed->signature_valid()) return {Result::kBadSignature, std::nullopt};
  const std::string key = cryptox::to_hex(authority_id);
  if (const auto it = last_sequence_.find(key);
      it != last_sequence_.end() && parsed->sequence <= it->second) {
    return {Result::kReplayed, std::nullopt};
  }
  last_sequence_[key] = parsed->sequence;
  return {Result::kAccepted, std::move(parsed)};
}

core::BroadcastOutcome publish_bulletin(core::CityMeshNetwork& network,
                                        BulletinAuthority& authority,
                                        osmx::BuildingId from_building,
                                        Severity severity, osmx::BuildingId center,
                                        std::uint32_t radius_m, std::string title,
                                        std::string body) {
  const Bulletin bulletin =
      authority.issue(severity, center, radius_m, std::move(title), std::move(body),
                      network.sim_now());
  const auto payload = bulletin.serialize();
  return network.broadcast(from_building, center, static_cast<double>(radius_m),
                           payload, severity >= Severity::kWarning);
}

}  // namespace citymesh::apps
