// Discrete-event simulation engine.
//
// Replaces the paper's SimPy harness. Events are (time, sequence) ordered —
// ties break on insertion order, so runs are deterministic for a given seed.
// The pending set is one 4-ary heap of 24-byte nodes (sim/scheduler.hpp).
// The engine knows nothing about radios — the broadcast medium (medium.hpp)
// and the protocol agents are layered on top.
//
// Handlers are InlineFns (sim/handler.hpp) kept in a side slab with a LIFO
// free list; a heap node carries only the slab slot, so sifting never moves
// a closure and scheduling an ordinary closure performs no allocation once
// the slab has warmed up. The schedule_* entry points are templates
// accepting any void() callable — std::function still works, it is just no
// longer required.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obsx/metrics.hpp"
#include "sim/handler.hpp"
#include "sim/scheduler.hpp"

namespace citymesh::sim {

class Simulator {
 public:
  using Handler = std::function<void()>;
  /// Token identifying one cancelable scheduled event (its sequence number).
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = std::numeric_limits<EventId>::max();

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    if (latency_) latency_->record(t - now_);
    push_handler(t, InlineFn(std::forward<F>(fn)));
  }

  /// Schedule `fn` after `delay` seconds (must be >= 0).
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Like schedule_at, but returns a token that cancel() accepts. A
  /// cancelled event still occupies its queue slot and advances now() when
  /// popped — identical timing to a handler that no-ops — but its handler is
  /// dropped (backoff timers, src/relayx).
  template <typename F>
  EventId schedule_cancelable_at(SimTime t, F&& fn) {
    const EventId id = next_seq_;
    schedule_at(t, std::forward<F>(fn));
    cancelable_.insert(id);
    return id;
  }
  template <typename F>
  EventId schedule_cancelable_in(SimTime delay, F&& fn) {
    return schedule_cancelable_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending cancelable event. Returns false when the token was
  /// already cancelled, already ran, or never cancelable *here* (e.g. it
  /// belongs to another shard's simulator) — a counted no-op, never UB;
  /// per-shard timer ownership (src/shardx) relies on this. O(1) amortized —
  /// the queue is not touched; the event is skipped when it surfaces.
  bool cancel(EventId id);

  /// Cancelable events scheduled and not yet run or cancelled.
  std::size_t cancelable_pending() const { return cancelable_.size(); }

  /// cancel() calls that found nothing to cancel (already fired, already
  /// cancelled, or a foreign event id).
  std::uint64_t cancel_misses() const { return cancel_misses_; }

  /// Run until the queue drains, `until` is reached, or `max_events` have
  /// been processed. Returns the number of events processed by this call,
  /// receptions settled at fan-out (count_settled) included.
  std::size_t run(SimTime until = kForever,
                  std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Earliest pending event time; kForever when the queue is empty. The
  /// shardx window coordinator uses this to skip idle spans instead of
  /// stepping empty lookahead windows.
  SimTime next_time() const { return queue_.empty() ? kForever : queue_.top().time; }

  /// Fast-forward to `t` without running anything (window-barrier alignment
  /// across shards). Must not skip events: throws when t > next_time().
  /// No-op when t <= now().
  void advance_to(SimTime t);

  /// Like schedule_at, but bypasses the latency histogram: cross-shard
  /// handoff ingestion records the handoff's true tx->rx latency on the
  /// source shard at creation time, so recording the barrier->arrival
  /// remainder here would double-count.
  template <typename F>
  void schedule_at_unrecorded(SimTime t, F&& fn) {
    if (t < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    push_handler(t, InlineFn(std::forward<F>(fn)));
  }

  // --- Batched events (sim/medium.hpp) -----------------------------------
  // A batched transmission consumes one sequence number per reception at
  // schedule time, in neighbor order, then occupies a single queue node keyed
  // by its earliest entry. The run loop fires one entry at the root and
  // re-keys the node in place at the batch's next (time, seq), so the global
  // event interleaving, sequence consumption, and now() trajectory are
  // identical to N separate events.

  /// Claim the next sequence number without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Feed the queue-latency histogram exactly as schedule_at would have
  /// (batched entries are scheduled out-of-band, but their latency is known
  /// at creation time like any other event's).
  void record_queue_latency(SimTime dt) {
    if (latency_) latency_->record(dt);
  }

  /// Count one reception the medium settled at fan-out instead of queueing
  /// (sim/medium.hpp): it had its seq reserved and its latency recorded, and
  /// it counts as a processed event — against run()'s max_events budget too
  /// — so event counts match a run that queued it.
  void count_settled() { ++processed_; }

  /// Insert `batch` keyed by its first entry. `seq` must come from
  /// reserve_seq() and `t` must be >= now(). The batch object must stay
  /// alive until its fire() returns more == false.
  void schedule_batch(SimTime t, std::uint64_t seq, BatchEvent* batch) {
    if (t < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    queue_.push({t, seq, reinterpret_cast<std::uintptr_t>(batch)});
  }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::size_t events_processed() const { return processed_; }

  /// Attach a histogram recording, per scheduled event, how long it will sit
  /// in the queue (execution time minus schedule time, simulated seconds —
  /// events run exactly at their timestamp, so the latency is known at
  /// schedule time). nullptr detaches. The histogram must outlive the
  /// simulator.
  void set_latency_histogram(obsx::Histogram* hist) { latency_ = hist; }

 private:
  // Heap refs: a BatchEvent pointer (aligned, low bit clear) or a handler
  // slab slot tagged with a set low bit.
  static bool is_handler(std::uintptr_t ref) { return (ref & 1) != 0; }

  void push_handler(SimTime t, InlineFn&& fn) {
    std::uintptr_t slot;
    if (free_slots_.empty()) {
      slot = handlers_.size();
      handlers_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      handlers_[slot] = std::move(fn);
    }
    queue_.push({t, next_seq_++, (slot << 1) | 1});
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::uint64_t cancel_misses_ = 0;
  obsx::Histogram* latency_ = nullptr;
  EventQueue queue_;
  std::vector<InlineFn> handlers_;           ///< slab indexed by heap ref >> 1
  std::vector<std::uintptr_t> free_slots_;   ///< LIFO: the warmest slot first
  // Cancelable-event bookkeeping; both empty unless schedule_cancelable_*
  // is used, so the run loop pays only an empty() branch per event.
  std::unordered_set<EventId> cancelable_;  ///< scheduled, not yet run/cancelled
  std::unordered_set<EventId> cancelled_;   ///< cancelled, not yet popped
};

}  // namespace citymesh::sim
