// Packet-lifecycle tracing (src/obsx).
//
// Every interesting thing that happens to a packet in the simulated mesh —
// origination, broadcast, reception, duplicate suppression, the conduit
// rebroadcast decision, postbox delivery, acknowledgments, fault drops —
// plus the fault actions themselves (src/faultx) is one compact TraceEvent
// in a single time-ordered stream. The §4 evaluation *is* counting these
// events; recording them once and deriving every figure/metric from the
// stream replaces the per-bench bespoke instrumentation (Figure 7 renders
// straight from a recorded trace).
//
// Cost discipline: events land in a preallocated ring buffer — no
// per-event allocation — and the whole layer has a "disabled = near-zero
// cost" path: a disabled buffer rejects events on one branch, and building
// with CITYMESH_DISABLE_TRACE (-DCITYMESH_DISABLE_TRACE=ON at configure
// time) compiles record() away entirely.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace citymesh::obsx {

enum class TraceKind : std::uint8_t {
  kOriginate,      ///< sender's AP injects a fresh packet
  kTx,             ///< a broadcast actually put on the air
  kRx,             ///< one per-link delivery
  kDupSuppressed,  ///< receiver had seen the message id (or overhear-cancel)
  kConduitReject,  ///< received, outside every conduit: no rebroadcast
  kRebroadcast,    ///< conduit test passed; retransmission (possibly backoff-delayed)
  kPostboxStore,   ///< stored into hosted postbox(es)
  kAck,            ///< acknowledgment packet originated
  kDropFaulted,    ///< tx/rx swallowed because the node is down (faultx)
  kDropLoss,       ///< per-link random loss
  kDeferred,       ///< tx queued behind the AP's busy channel (trafficx)
  kDropQueue,      ///< tx dropped: transmit queue full (trafficx)
  kApDown,         ///< fault action: AP went down
  kApUp,           ///< fault action: AP restored
  kRegionDegrade,  ///< fault action: degraded-link region activated
  kRegionRestore,  ///< fault action: degraded-link region deactivated
  kMalformed,      ///< reception dropped: undecodable or corrupt header
  kElected,        ///< relay policy armed a delayed rebroadcast (src/relayx)
  kSuppressed,     ///< armed/considered rebroadcast suppressed before airing
};

std::string_view to_string(TraceKind kind);
std::optional<TraceKind> trace_kind_from(std::string_view name);

/// Sentinel for "no node" / "no payload" (a valid id never reaches 2^32-1).
constexpr std::uint32_t kTraceNone = 0xffffffffu;

struct TraceEvent {
  double time_s = 0.0;          ///< simulated time
  std::uint32_t node = kTraceNone;   ///< AP id (kTraceNone for global events)
  std::uint32_t packet = 0;     ///< message id (0 for fault actions)
  TraceKind kind = TraceKind::kTx;
  /// Kind-dependent payload; kTraceNone = absent.
  union Payload {
    std::uint32_t peer;    ///< kRx/kDupSuppressed/kDropLoss/kDropFaulted: transmitter
    std::uint32_t count;   ///< kPostboxStore: postboxes newly stored into
    std::uint32_t region;  ///< kRegionDegrade/kRegionRestore: region index
    std::uint32_t raw;
  } payload{kTraceNone};

  bool operator==(const TraceEvent& o) const {
    return time_s == o.time_s && node == o.node && packet == o.packet &&
           kind == o.kind && payload.raw == o.payload.raw;
  }
};

/// JSONL key the payload serializes under; nullptr when the kind carries none.
const char* payload_key(TraceKind kind);

/// Preallocated trace ring. Disabled (the default) it costs one branch per
/// record() call and holds no storage; enable() allocates the buffer once
/// and reuses it across clear() calls. When full, a new event overwrites
/// the oldest one, so the buffer keeps the latest window.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1u << 16);

  bool enabled() const { return enabled_; }
  void enable(bool on = true);

  std::size_t capacity() const { return capacity_; }

#ifdef CITYMESH_DISABLE_TRACE
  static constexpr bool compiled_in = false;
  void record(const TraceEvent&) {}
  void record(TraceKind, double, std::uint32_t, std::uint32_t,
              std::uint32_t = kTraceNone) {}
#else
  static constexpr bool compiled_in = true;
  void record(const TraceEvent& event) {
    if (!enabled_) return;
    push(event);
  }
  void record(TraceKind kind, double time_s, std::uint32_t node,
              std::uint32_t packet, std::uint32_t payload = kTraceNone) {
    if (!enabled_) return;
    TraceEvent e;
    e.time_s = time_s;
    e.node = node;
    e.packet = packet;
    e.kind = kind;
    e.payload.raw = payload;
    push(e);
  }
#endif

  /// Events currently held (<= capacity).
  std::size_t size() const { return size_; }
  /// Total events accepted, including ones a wrap overwrote.
  std::uint64_t recorded() const { return recorded_; }
  /// Events a wrap overwrote.
  std::uint64_t lost() const { return lost_; }

  /// Drop held events; keeps the allocation and the enabled state.
  void clear();

  /// Held events, oldest first (unwraps the ring).
  std::vector<TraceEvent> events() const;

 private:
  void push(const TraceEvent& event);

  std::size_t capacity_;
  bool enabled_ = false;
  std::vector<TraceEvent> buffer_;  ///< allocated on first enable()
  std::size_t head_ = 0;            ///< oldest held event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t lost_ = 0;
};

// ----------------------------------------------------------------- JSONL ---

/// Write events as JSON Lines: one flat object per event, `\n`-terminated.
void write_trace_jsonl(std::ostream& os, std::span<const TraceEvent> events);
void write_trace_jsonl(std::ostream& os, const TraceBuffer& buffer);

/// Serialize one event (no trailing newline).
std::string trace_line(const TraceEvent& event);

/// Parse one JSONL line. Returns nullopt and sets `error` on malformed
/// input, unknown kinds, or missing required keys.
std::optional<TraceEvent> parse_trace_line(std::string_view line,
                                           std::string* error = nullptr);

/// Parse a whole stream; empty lines are skipped. On error returns nullopt
/// and reports the 1-based line number in `error`.
std::optional<std::vector<TraceEvent>> read_trace_jsonl(std::istream& is,
                                                        std::string* error = nullptr);

}  // namespace citymesh::obsx
