// Pending-event storage for the simulator: one compact 4-ary min-heap.
//
// A heap node is 24 bytes — (time, seq, ref) — ordered by strictly
// increasing (time, seq). Sequence numbers are unique, so the order is total
// and equal times break FIFO (insertion order): runs are deterministic for a
// given seed. The ref is opaque to the heap; Simulator tags it as either a
// slot in its handler slab (so sifting nodes never moves a closure) or a
// BatchEvent pointer.
//
// A BatchEvent is a multi-shot event: the medium fans one transmission out
// to N receptions from a single heap node (sim/medium.hpp). After each
// firing the batch reports the (time, seq) of its next entry, and the run
// loop re-keys the root in place (replace_top: one sift-down, no pop/push),
// so the global interleaving is identical to N independent events at the
// same timestamps.
//
// Four children per node halve the depth of a binary heap, and a node's
// children sit side by side (96 bytes), so a sift-down level reads one or
// two cache lines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace citymesh::sim {

/// Simulated time in seconds.
using SimTime = double;

constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

/// What a BatchEvent::fire returns: the key of its next pending entry, or
/// more == false when the batch is exhausted (after which the queue drops
/// its pointer; the batch owner reclaims the object).
struct BatchFire {
  bool more = false;
  SimTime time = 0.0;
  std::uint64_t seq = 0;
};

class BatchEvent {
 public:
  virtual ~BatchEvent() = default;
  /// Deliver exactly one entry (the one this node was keyed by), then
  /// report the next entry's key. Entries must be (time, seq) sorted and
  /// every seq must come from Simulator::reserve_seq() or reserve_seqs().
  virtual BatchFire fire(SimTime now) = 0;
};

/// The simulator's pending-event set.
class EventQueue {
 public:
  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::uintptr_t ref;  ///< owner-defined payload; the heap never reads it
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Minimum (time, seq) node. Precondition: !empty().
  const Node& top() const { return heap_.front(); }

  void push(const Node& node) {
    heap_.push_back(node);
    sift_up(heap_.size() - 1, node);
  }

  /// Remove the minimum. Precondition: !empty().
  void pop() {
    const Node last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  /// Re-key the minimum (same ref) and restore heap order with one
  /// sift-down. Precondition: !empty().
  void replace_top(SimTime time, std::uint64_t seq) {
    sift_down({time, seq, heap_.front().ref});
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const Node& a, const Node& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  void sift_up(std::size_t i, const Node& node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(node, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = node;
  }

  /// Place `node` starting from the root's hole.
  void sift_down(const Node& node) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], node)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = node;
  }

  std::vector<Node> heap_;
};

static_assert(sizeof(EventQueue::Node) == 24, "heap nodes stay 24 bytes");

}  // namespace citymesh::sim
