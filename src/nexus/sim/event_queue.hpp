// The DES kernel's pending-event set: a monotone radix heap.
//
// The kernel's contract is a *total* pop order: earliest time first, ties
// broken by issue sequence (Event::seq), so same-tick events pop in
// insertion order. Every schedule, and therefore every golden, follows from
// that order alone.
//
// A DES never schedules into the past, so the keys are monotone: every
// pushed t is >= the last popped t. A radix heap exploits exactly that. An
// event lives in the bucket named by the highest bit in which its t differs
// from the last popped time (bucket 0: t equals it). Buckets are vectors in
// push order; bucket 0 drains FIFO through a head index. When bucket 0 runs
// dry, the lowest occupied bucket is scanned for its minimum t, which
// becomes the new last-popped time, and its events are redistributed into
// strictly lower buckets. An event's bucket depends only on its t and the
// last popped time, so equal-t events always share a bucket, and a bucket
// is always in push order; with seq increasing in push order, that makes
// the pop order exactly (t, seq) — the same order a binary heap gives.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/sim/event.hpp"

namespace nexus {

/// The pending-event structure a Simulation drains. The radix heap is the
/// only one; the enum stays so run provenance can keep naming it.
enum class QueueKind : std::uint8_t {
  kRadixHeap = 0,
};

[[nodiscard]] constexpr const char* to_string(QueueKind) { return "radix-heap"; }

/// The queue every Simulation uses.
[[nodiscard]] constexpr QueueKind default_queue_kind() {
  return QueueKind::kRadixHeap;
}

/// Monotone radix heap of pending events in (t, seq) order, tracking its
/// deepest population (the sim/queue/max_depth gauge).
///
/// Preconditions on push (Simulation::schedule guarantees both): t >= 0 and
/// t >= the t of the last popped event (monotone keys), and seq is greater
/// than the seq of every event pushed before it.
class EventQueue {
 public:
  void push(const Event& ev) {
    NEXUS_DCHECK(ev.t >= 0 && static_cast<std::uint64_t>(ev.t) >= last_);
    put(bucket_of(ev.t), ev);
    if (++size_ > max_depth_) max_depth_ = size_;
  }

  /// Pop the minimum (earliest t, lowest seq). Precondition: !empty().
  [[nodiscard]] Event pop() {
    if (head_ == buckets_[0].size()) refill();
    --size_;
    return buckets_[0][head_++];
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Deepest the pending set has ever been.
  [[nodiscard]] std::size_t max_depth() const { return max_depth_; }

 private:
  /// Tick is signed and never negative, so bit 63 of t ^ last_ is always
  /// clear and 64 buckets cover every key.
  static constexpr int kBuckets = 64;
  /// Events a bucket makes room for on its first append. Growing a bucket
  /// in a few large steps, not from one event up, keeps many small
  /// reallocations from splitting the allocator's free blocks, which
  /// otherwise cost ~1.2 MB of peak RSS on mesh workloads.
  static constexpr std::size_t kFirstChunk = 64;

  [[nodiscard]] int bucket_of(Tick t) const {
    return 64 - std::countl_zero(static_cast<std::uint64_t>(t) ^ last_);
  }

  /// Append `ev` to bucket `b` (in push order) and mark it occupied.
  void put(int b, const Event& ev) {
    std::vector<Event>& bucket = buckets_[static_cast<std::size_t>(b)];
    if (bucket.capacity() == 0) bucket.reserve(kFirstChunk);
    bucket.push_back(ev);
    occupied_ |= std::uint64_t{1} << b;
  }

  /// Bucket 0 is drained: advance last_ to the minimum of the lowest
  /// occupied bucket and spread that bucket over the (empty) lower ones.
  void refill() {
    buckets_[0].clear();
    head_ = 0;
    occupied_ &= ~std::uint64_t{1};
    NEXUS_DCHECK(occupied_ != 0);
    const int i = std::countr_zero(occupied_);
    std::vector<Event>& src = buckets_[static_cast<std::size_t>(i)];
    Tick min_t = src.front().t;
    for (const Event& ev : src)
      if (ev.t < min_t) min_t = ev.t;
    last_ = static_cast<std::uint64_t>(min_t);
    // Each lands below i: src shares last_'s bits from i-1 up.
    for (const Event& ev : src) put(bucket_of(ev.t), ev);
    src.clear();
    occupied_ &= ~(std::uint64_t{1} << i);
  }

  std::array<std::vector<Event>, kBuckets> buckets_;
  std::size_t head_ = 0;        ///< next bucket-0 event to pop
  std::uint64_t last_ = 0;      ///< t of the last popped event
  std::uint64_t occupied_ = 0;  ///< bit b >= 1 set iff bucket b is non-empty
  std::size_t size_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace nexus
