// The DES kernel's pending-event set: a binary heap (std::priority_queue,
// O(log n) per op).
//
// The kernel's contract is a *total* pop order: earliest time first, ties
// broken by issue sequence (Event::seq), so same-tick events pop in
// insertion order. Every schedule, and therefore every golden, follows from
// that order alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "nexus/sim/event.hpp"

namespace nexus {

/// The pending-event structure a Simulation drains. The binary heap is the
/// only one; the enum stays so run provenance can keep naming it.
enum class QueueKind : std::uint8_t {
  kBinaryHeap = 0,
};

[[nodiscard]] constexpr const char* to_string(QueueKind) { return "heap"; }

/// The queue every Simulation uses.
[[nodiscard]] constexpr QueueKind default_queue_kind() {
  return QueueKind::kBinaryHeap;
}

/// Min-heap of pending events in (t, seq) order, tracking its deepest
/// population (the sim/queue/max_depth gauge).
class EventQueue {
 public:
  void push(const Event& ev) {
    heap_.push(ev);
    if (heap_.size() > max_depth_) max_depth_ = heap_.size();
  }

  /// Pop the minimum (earliest t, lowest seq). Precondition: !empty().
  [[nodiscard]] Event pop() {
    Event ev = heap_.top();
    heap_.pop();
    return ev;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Deepest the pending set has ever been.
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

 private:
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  std::size_t max_depth_ = 0;
};

}  // namespace nexus
