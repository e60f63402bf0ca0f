// The DES kernel's pending-event set: a short sorted run in front of a
// binary heap.
//
// The kernel's contract is a *total* pop order: earliest time first, ties
// broken by issue sequence (Event::seq), so same-tick events pop in
// insertion order. Every schedule, and therefore every golden, follows from
// that order alone.
//
// Nearly every event the models schedule lands 1 to ~100 manager cycles
// ahead into a shallow pending set (see kRunCapacity). So the queue keeps
// up to kRunCapacity pending events in a run sorted by (t, seq) with the
// next event at its back: a push walks back past the few events due before
// it, and a pop takes the back. Every other event waits in a binary heap
// ordered by (t, seq). A push later than a full run's last-due event (its
// front) goes to the heap; an earlier one evicts that front event to the
// heap. A pop takes the earlier of the run's back and the heap's top,
// comparing both by (t, seq), so the pop order is exactly (t, seq) whichever
// tier holds which event: an evicted event keeps its (older) seq and still
// pops before a later same-t push.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/sim/event.hpp"

namespace nexus {

/// The pending-event structure a Simulation drains. The sorted run plus
/// binary heap is the only one; the enum stays so run provenance can keep
/// naming it.
enum class QueueKind : std::uint8_t {
  kSortedRunHeap = 0,
};

[[nodiscard]] constexpr const char* to_string(QueueKind) {
  return "sorted-run+binary-heap";
}

/// The queue every Simulation uses.
[[nodiscard]] constexpr QueueKind default_queue_kind() {
  return QueueKind::kSortedRunHeap;
}

/// Pending events in (t, seq) order, tracking the deepest population (the
/// sim/queue/max_depth gauge).
///
/// Precondition on push (Simulation::schedule guarantees it): seq is greater
/// than the seq of every event pushed before it. A pushed event is thus
/// later in (t, seq) than every run event with t <= its t, so the run is
/// kept sorted by comparing t alone.
class EventQueue {
 public:
  void push(const Event& ev) {
    if (++size_ > max_depth_) max_depth_ = size_;
    if (run_size_ == kRunCapacity) {
      if (ev.t >= run_[0].t) {
        heap_push(ev);
        return;
      }
      // Evict the last-due event; the later ones move towards the front.
      heap_push(run_[0]);
      std::size_t i = 1;
      for (; i < kRunCapacity && run_[i].t > ev.t; ++i) run_[i - 1] = run_[i];
      run_[i - 1] = ev;
      return;
    }
    std::size_t i = run_size_++;
    for (; i > 0 && run_[i - 1].t <= ev.t; --i) run_[i] = run_[i - 1];
    run_[i] = ev;
  }

  /// Pop the minimum (earliest t, lowest seq). Precondition: !empty().
  [[nodiscard]] Event pop() {
    NEXUS_DCHECK(size_ != 0);
    --size_;
    if (run_size_ > 0 &&
        (heap_.empty() || EventLater{}(heap_.front(), run_[run_size_ - 1])))
      return run_[--run_size_];
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    const Event ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Deepest the pending set has ever been.
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

 private:
  /// The run's capacity. The pending set stays below 64 events at 96% of
  /// pops on perfbench's Table-II workload, so nearly every event is pushed
  /// into and popped from the run. A push costs O(capacity) at worst, so a
  /// much longer run would make deep queues (open-loop tenants, event
  /// storms) pay per push what the heap pays in O(log n).
  static constexpr std::size_t kRunCapacity = 64;

  void heap_push(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }

  std::array<Event, kRunCapacity> run_{};  ///< sorted; run_[0] is due last
  std::size_t run_size_ = 0;
  std::vector<Event> heap_;  ///< min-heap on (t, seq) via EventLater
  std::size_t size_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace nexus
