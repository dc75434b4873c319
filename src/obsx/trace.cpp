#include "obsx/trace.hpp"

#include <array>
#include <cmath>
#include <istream>
#include <ostream>

#include "obsx/json.hpp"

namespace citymesh::obsx {

namespace {

struct KindName {
  TraceKind kind;
  std::string_view name;
};

constexpr std::array<KindName, 19> kKindNames{{
    {TraceKind::kOriginate, "originate"},
    {TraceKind::kTx, "tx"},
    {TraceKind::kRx, "rx"},
    {TraceKind::kDupSuppressed, "dup-suppressed"},
    {TraceKind::kConduitReject, "conduit-reject"},
    {TraceKind::kRebroadcast, "rebroadcast"},
    {TraceKind::kPostboxStore, "postbox-store"},
    {TraceKind::kAck, "ack"},
    {TraceKind::kDropFaulted, "drop-faulted"},
    {TraceKind::kDropLoss, "drop-loss"},
    {TraceKind::kDeferred, "deferred"},
    {TraceKind::kDropQueue, "drop-queue"},
    {TraceKind::kApDown, "ap-down"},
    {TraceKind::kApUp, "ap-up"},
    {TraceKind::kRegionDegrade, "region-degrade"},
    {TraceKind::kRegionRestore, "region-restore"},
    {TraceKind::kMalformed, "malformed"},
    {TraceKind::kElected, "elected"},
    {TraceKind::kSuppressed, "suppressed"},
}};

}  // namespace

std::string_view to_string(TraceKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::optional<TraceKind> trace_kind_from(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (kn.name == name) return kn.kind;
  }
  return std::nullopt;
}

const char* payload_key(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRx:
    case TraceKind::kDupSuppressed:
    case TraceKind::kDropLoss:
    case TraceKind::kDropFaulted:
    case TraceKind::kSuppressed:  // the overheard transmitter; absent when
                                  // the policy suppressed at election time
      return "peer";
    case TraceKind::kPostboxStore:
      return "count";
    case TraceKind::kRegionDegrade:
    case TraceKind::kRegionRestore:
      return "region";
    default:
      return nullptr;
  }
}

// ----------------------------------------------------------- TraceBuffer ---

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceBuffer::enable(bool on) {
  enabled_ = on && compiled_in;
  if (enabled_ && buffer_.empty()) buffer_.resize(capacity_);
}

void TraceBuffer::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  lost_ = 0;
}

void TraceBuffer::push(const TraceEvent& event) {
  if (size_ == capacity_) {
    // Overwrite the oldest slot.
    buffer_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    ++recorded_;
    ++lost_;
    return;
  }
  buffer_[(head_ + size_) % capacity_] = event;
  ++size_;
  ++recorded_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buffer_[(head_ + i) % capacity_]);
  }
  return out;
}

// ----------------------------------------------------------------- JSONL ---

std::string trace_line(const TraceEvent& event) {
  std::string out = "{\"t\":";
  out += json_number(event.time_s);
  out += ",\"kind\":\"";
  out += to_string(event.kind);
  out += '"';
  if (event.node != kTraceNone) {
    out += ",\"node\":";
    out += json_number(static_cast<std::uint64_t>(event.node));
  }
  if (event.packet != 0) {
    out += ",\"packet\":";
    out += json_number(static_cast<std::uint64_t>(event.packet));
  }
  if (const char* key = payload_key(event.kind);
      key != nullptr && event.payload.raw != kTraceNone) {
    out += ",\"";
    out += key;
    out += "\":";
    out += json_number(static_cast<std::uint64_t>(event.payload.raw));
  }
  out += '}';
  return out;
}

void write_trace_jsonl(std::ostream& os, std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) {
    os << trace_line(e) << '\n';
  }
}

void write_trace_jsonl(std::ostream& os, const TraceBuffer& buffer) {
  const auto events = buffer.events();
  write_trace_jsonl(os, events);
}

std::optional<TraceEvent> parse_trace_line(std::string_view line, std::string* error) {
  const auto obj = parse_flat_object(line, error);
  if (!obj) return std::nullopt;

  const auto number = [&](const char* key) -> std::optional<double> {
    const auto it = obj->find(key);
    if (it == obj->end()) return std::nullopt;
    if (!it->second.is_number()) return std::nullopt;
    return it->second.num;
  };

  TraceEvent e;
  const auto t = number("t");
  if (!t) {
    if (error) *error = "missing numeric \"t\"";
    return std::nullopt;
  }
  e.time_s = *t;

  const auto kind_it = obj->find("kind");
  if (kind_it == obj->end() || !kind_it->second.is_string()) {
    if (error) *error = "missing string \"kind\"";
    return std::nullopt;
  }
  const auto kind = trace_kind_from(kind_it->second.str);
  if (!kind) {
    if (error) *error = "unknown kind \"" + kind_it->second.str + "\"";
    return std::nullopt;
  }
  e.kind = *kind;

  if (const auto node = number("node")) e.node = static_cast<std::uint32_t>(*node);
  if (const auto packet = number("packet")) e.packet = static_cast<std::uint32_t>(*packet);
  if (const char* key = payload_key(e.kind)) {
    if (const auto payload = number(key)) {
      e.payload.raw = static_cast<std::uint32_t>(*payload);
    }
  }
  return e;
}

std::optional<std::vector<TraceEvent>> read_trace_jsonl(std::istream& is,
                                                        std::string* error) {
  std::vector<TraceEvent> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string why;
    const auto e = parse_trace_line(line, &why);
    if (!e) {
      if (error) *error = "line " + std::to_string(lineno) + ": " + why;
      return std::nullopt;
    }
    out.push_back(*e);
  }
  return out;
}

}  // namespace citymesh::obsx
