#include "sim/simulator.hpp"

#include <cassert>

namespace citymesh::sim {

bool Simulator::cancel(EventId id) {
  if (cancelable_.erase(id) == 0) {
    ++cancel_misses_;
    return false;
  }
  cancelled_.insert(id);
  return true;
}

void Simulator::advance_to(SimTime t) {
  if (t <= now_) return;
  if (t > next_time())
    throw std::invalid_argument{"Simulator: advance_to would skip pending events"};
  now_ = t;
}

std::size_t Simulator::run(SimTime until, std::size_t max_events) {
  // Counted through processed_, so receptions settled during this call
  // (count_settled) spend the budget like the events they replace.
  const std::size_t processed_before = processed_;
  while (processed_ - processed_before < max_events && !queue_.empty()) {
    const EventQueue::Node top = queue_.top();
    if (top.time > until) break;
    now_ = top.time;
    ++processed_;
    if (!is_handler(top.ref)) {
      // One reception of a batched transmission, advanced in place. Exact:
      // everything fire() schedules gets a fresh seq and a time >= now, so
      // it sorts after this node, which is therefore still the root.
      const BatchFire next = reinterpret_cast<BatchEvent*>(top.ref)->fire(now_);
      assert(queue_.top().seq == top.seq && queue_.top().ref == top.ref);
      if (next.more) {
        queue_.replace_top(next.time, next.seq);
      } else {
        queue_.pop();
      }
      continue;
    }
    queue_.pop();
    // Move the handler out before running it: it may schedule, and a slab
    // growth would otherwise relocate the closure under its own feet.
    const std::uintptr_t slot = top.ref >> 1;
    InlineFn fn = std::move(handlers_[slot]);
    free_slots_.push_back(slot);
    // A cancelled event advances time and counts like a no-op handler would
    // have — cancellation changes *what* runs, never the event timeline.
    if (!cancelled_.empty() && cancelled_.erase(top.seq) > 0) continue;
    if (!cancelable_.empty()) cancelable_.erase(top.seq);
    fn();
  }
  if (queue_.empty() && until != kForever && now_ < until) now_ = until;
  return processed_ - processed_before;
}

}  // namespace citymesh::sim
