// Pluggable rebroadcast-suppression policies (src/relayx).
//
// The paper concedes a 13x median transmission overhead from naive conduit
// flooding ("currently all the APs within a building rebroadcast ... we are
// confident that this overhead can be reduced"). This module is that
// reduction, behind a strategy interface: core::CityMeshNetwork consults a
// RebroadcastPolicy at the exact point where the compiled-message membership
// check used to trigger an unconditional rebroadcast, and the policy answers
// relay-now / relay-after-backoff / don't-relay. While a delayed rebroadcast
// is pending, every overheard duplicate is reported back and the policy may
// cancel the timer — coordinated relay election in the style of Meshtastic's
// SignalRouting (SNIPPETS.md snippet 3) and the authors' follow-up scalable-
// routing work (arXiv 2504.06406).
//
// Shipped policies:
//   flood            the paper's behavior: relay immediately, never cancel.
//                    Draws no randomness and emits no events — run manifests
//                    stay byte-identical to the pre-relayx pipeline (the
//                    golden digest gate verifies this).
//   building-backoff random backoff, cancel when a copy is overheard from an
//                    AP of the same building within suppress_radius_m
//                    (promoted from bench/ablation_suppression.cpp).
//   counter-gossip   probabilistic rebroadcast (probability gossip_p) plus a
//                    copy counter: cancel after cancel_copies overheard
//                    duplicates inside the backoff window, building-blind.
//   etx-priority     ETX-style per-link delivery estimates accumulated from
//                    observed receptions; APs with more well-heard links are
//                    better-positioned relays and draw *shorter* backoffs
//                    (role priority), so they fire first and silence the
//                    redundant rest. Cancels like counter-gossip plus the
//                    same-building rule.
//
// Cost discipline: every per-decision path (observe / elect /
// cancel_on_overhear) is allocation-free — fixed per-AP and per-link arrays
// sized at construction, per-AP RNG streams seeded deterministically from
// (seed, ap). bench/micro_bench measures the flood and etx-priority decision
// cost. Counters (relayx.scheduled/cancelled/fired/etx_updates) live in the
// policy's own registry until bind_metrics() repoints them, following
// core::MessageCompiler's precedent: the network binds them only for
// non-flood policies so flood manifests serialize exactly the legacy key
// set.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "geo/rng.hpp"
#include "mesh/ap_network.hpp"
#include "obsx/metrics.hpp"

namespace citymesh::relayx {

enum class PolicyKind : std::uint8_t {
  kFlood,
  kBuildingBackoff,
  kCounterGossip,
  kEtxPriority,
};

/// Canonical CLI/spec name ("flood", "building-backoff", ...).
std::string_view to_string(PolicyKind kind);
std::optional<PolicyKind> policy_kind_from(std::string_view name);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kFlood;
  /// Maximum random backoff before an elected rebroadcast airs.
  double backoff_s = 0.02;
  /// Same-building overhear-cancel radius (building-backoff, etx-priority):
  /// an overheard copy from a sibling AP closer than this covers (nearly)
  /// the same area, so the pending copy is redundant. Without the radius a
  /// badly placed sibling can silence the one AP positioned to bridge to
  /// the next building and kill the flood.
  double suppress_radius_m = 15.0;
  /// Overheard-duplicate count that cancels a pending rebroadcast
  /// (counter-gossip, etx-priority). Counter-based gossip needs a high
  /// threshold in a narrow conduit: each overheard copy may come from
  /// *behind* the flood frontier, so small thresholds silence the APs that
  /// would push it forward and reachability collapses (the classic
  /// counter-scheme result — at 2 copies deliverability drops to 0.25).
  /// 5 keeps the fig11 deliverability loss within ~1pp of flood while still
  /// cutting the median overhead >= 3x.
  std::uint32_t cancel_copies = 5;
  /// Probability an elected AP rebroadcasts at all (counter-gossip).
  /// Default 1.0: the copy counter is the better-informed suppressor;
  /// lowering p trades deliverability for overhead blindly (a suppressed AP
  /// may be the only bridge out of its cluster).
  double gossip_p = 1.0;
  /// Link-quality mass at which the etx-priority backoff scaling halves:
  /// score/(score+pivot) with score = sum over incident links of c/(c+1)
  /// reception counts.
  double etx_pivot = 2.0;
  /// Base seed of the per-AP RNG streams (the network passes its own seed
  /// so policy draws follow the run's determinism contract).
  std::uint64_t seed = 99;
};

/// One physical reception, as the policy sees it.
struct Reception {
  mesh::ApId ap = 0;                ///< receiver (the AP deciding)
  mesh::ApId from = 0;              ///< transmitter it heard
  std::uint32_t message_id = 0;
  double now_s = 0.0;               ///< simulated time
};

/// A policy's answer to "this AP passed the membership check".
struct Decision {
  enum class Kind : std::uint8_t {
    kRelayNow,   ///< transmit immediately (flood)
    kDelay,      ///< arm a backoff timer for delay_s, cancelable on overhear
    kSuppress,   ///< do not relay at all (probabilistic gossip drop)
  };
  Kind kind = Kind::kRelayNow;
  double delay_s = 0.0;  ///< valid when kind == kDelay
};

/// Strategy interface. One instance per tile shard of a network; the tile's
/// event loop serializes all calls, so implementations keep plain state.
class RebroadcastPolicy {
 public:
  explicit RebroadcastPolicy(const PolicyConfig& config);
  virtual ~RebroadcastPolicy();

  RebroadcastPolicy(const RebroadcastPolicy&) = delete;
  RebroadcastPolicy& operator=(const RebroadcastPolicy&) = delete;

  PolicyKind kind() const { return config_.kind; }
  std::string_view name() const { return to_string(config_.kind); }
  const PolicyConfig& config() const { return config_; }

  /// Every non-malformed reception, duplicates included — the link-quality
  /// observation hook (etx-priority accumulates its per-link estimates
  /// here). Must be allocation-free; default no-op.
  virtual void observe(const Reception& rx) { (void)rx; }

  /// True when a duplicate reception can never change this policy's state
  /// or decisions: observe() is a no-op, elect() never arms a pending copy
  /// and nothing is ever cancelled. The network may then settle duplicates
  /// without delivering them (sim/medium.hpp). Default false.
  virtual bool ignores_duplicates() const { return false; }

  /// First accepted copy at an AP the membership check elected: decide how
  /// (whether) to relay. Called once per (message, ap).
  virtual Decision elect(const Reception& rx) = 0;

  /// A duplicate arrived while this AP's rebroadcast is pending.
  /// `overheard_copies` counts duplicates seen since the timer was armed
  /// (including this one). Return true to cancel the pending transmission.
  virtual bool cancel_on_overhear(const Reception& rx,
                                  std::uint32_t overheard_copies) = 0;

  /// The network reports a backoff timer that fired and transmitted.
  void count_fired() { fired_->inc(); }

  /// Repoint the counters into `registry` under `<prefix>.*`. The registry
  /// must outlive the policy. Left unbound (flood), they stay in the
  /// policy's own registry and out of run manifests.
  void bind_metrics(obsx::MetricsRegistry& registry, std::string_view prefix = "relayx");

  /// Current counter values (whichever registry they live in).
  std::uint64_t scheduled() const { return scheduled_->value(); }
  std::uint64_t cancelled() const { return cancelled_->value(); }
  std::uint64_t fired() const { return fired_->value(); }
  std::uint64_t etx_updates() const { return etx_updates_->value(); }

 protected:
  void count_scheduled() { scheduled_->inc(); }
  void count_cancelled() { cancelled_->inc(); }
  void count_etx_update() { etx_updates_->inc(); }

  PolicyConfig config_;

 private:
  obsx::MetricsRegistry own_;  ///< fallback registry until bind_metrics()
  obsx::Counter* scheduled_ = nullptr;    ///< rebroadcasts deferred on a timer
  obsx::Counter* cancelled_ = nullptr;    ///< suppressed before airing
  obsx::Counter* fired_ = nullptr;        ///< deferred rebroadcasts that aired
  obsx::Counter* etx_updates_ = nullptr;  ///< link-estimate updates
};

/// Build the configured policy over a city's realized AP placement. The
/// ApNetwork must outlive the policy (the network owns both via its shared
/// CompiledCity).
std::unique_ptr<RebroadcastPolicy> make_policy(const PolicyConfig& config,
                                               const mesh::ApNetwork& aps);

}  // namespace citymesh::relayx
