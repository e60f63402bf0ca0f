// The DES scheduler's pop-order contract: earliest time first, ties broken
// by issue sequence, so same-tick events pop in insertion order and a
// far-future straggler waits its turn; plus the max-depth high-water the
// sim/queue/max_depth gauge reports. The differential tests replay seeded
// monotone push/pop interleavings through the EventQueue and a reference
// binary heap (std::priority_queue over EventLater) and require the same
// (t, seq) pop sequence and the same max depth.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/sim/event_queue.hpp"
#include "nexus/sim/time.hpp"

namespace nexus {
namespace {

TEST(QueueKind, ToString) {
  EXPECT_STREQ(to_string(QueueKind::kSortedRunHeap), "sorted-run+binary-heap");
  EXPECT_EQ(default_queue_kind(), QueueKind::kSortedRunHeap);
}

Event ev_at(Tick t, std::uint64_t seq) { return Event{t, seq, 0, 0, seq, 0}; }

TEST(EventQueue, PopsTimeThenSeqOrder) {
  // A batch whose arrival order is shuffled in time.
  EventQueue q;
  std::uint64_t seq = 0;
  for (const Tick t : {ns(50), ns(10), ns(90), ns(10), ns(0), ns(50), ns(200)})
    q.push(ev_at(t, seq++));
  std::vector<std::pair<Tick, std::uint64_t>> popped;
  while (!q.empty()) {
    const Event e = q.pop();
    popped.emplace_back(e.t, e.seq);
  }
  const std::vector<std::pair<Tick, std::uint64_t>> want = {
      {ns(0), 4},  {ns(10), 1}, {ns(10), 3}, {ns(50), 0},
      {ns(50), 5}, {ns(90), 2}, {ns(200), 6}};
  EXPECT_EQ(popped, want);
}

TEST(EventQueue, SameTickBurstPopsInInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) q.push(ev_at(ns(7), i));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const Event e = q.pop();
    ASSERT_EQ(e.seq, i);
    ASSERT_EQ(e.t, ns(7));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureStragglerPopsLast) {
  // Dense region plus one event seconds ahead, pushed first.
  EventQueue q;
  std::uint64_t seq = 0;
  q.push(ev_at(ms(4500), seq++));
  for (int i = 0; i < 15; ++i) q.push(ev_at(ns(i), seq++));
  Tick last = -1;
  std::size_t n = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    ASSERT_GE(e.t, last);
    last = e.t;
    ++n;
  }
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(last, ms(4500));
}

TEST(EventQueueDepth, HeapTracksMaxDepthToo) {
  // max_depth feeds the sim/queue/max_depth gauge; it is a high-water mark,
  // so draining never lowers it.
  EventQueue q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) q.push(ev_at(ns(i), seq++));
  for (int i = 0; i < 5; ++i) (void)q.pop();
  for (int i = 0; i < 3; ++i) q.push(ev_at(ns(50 + i), seq++));
  EXPECT_EQ(q.max_depth(), 10u);  // the first wave's peak
}

// ---------- differential: EventQueue vs a reference binary heap ----------

/// Drives an EventQueue and a reference std::priority_queue in lockstep.
/// Pushes must be monotone (t >= the last popped t), as in the kernel.
class Differential {
 public:
  void push(Tick t) {
    ASSERT_GE(t, now_) << "test bug: non-monotone push";
    const Event ev = ev_at(t, seq_++);
    q_.push(ev);
    ref_.push(ev);
    if (ref_.size() > ref_max_) ref_max_ = ref_.size();
  }

  /// Pop one event from both and require the same (t, seq).
  void pop() {
    ASSERT_FALSE(q_.empty());
    ASSERT_FALSE(ref_.empty());
    const Event got = q_.pop();
    const Event want = ref_.top();
    ref_.pop();
    ASSERT_EQ(got.t, want.t) << "pop #" << pops_;
    ASSERT_EQ(got.seq, want.seq) << "pop #" << pops_;
    ASSERT_EQ(got.a, want.a);
    now_ = got.t;
    ++pops_;
  }

  void drain() {
    while (!ref_.empty()) {
      pop();
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(q_.empty());
  }

  void check_sizes() const {
    EXPECT_EQ(q_.size(), ref_.size());
    EXPECT_EQ(q_.max_depth(), ref_max_);
  }

  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return ref_.size(); }
  [[nodiscard]] std::uint64_t pops() const { return pops_; }

 private:
  EventQueue q_;
  std::priority_queue<Event, std::vector<Event>, EventLater> ref_;
  std::size_t ref_max_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t pops_ = 0;
  Tick now_ = 0;
};

TEST(EventQueueDifferential, SeededMonotoneInterleavings) {
  // Hold-model mixes: mostly small delays, same-tick bursts (pushed while
  // that tick is draining), and far-future stragglers.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    Differential d;
    for (int i = 0; i < 64; ++i)
      d.push(static_cast<Tick>(rng.below(1000)));
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t sel = rng.below(100);
      if (d.size() > 0 && sel < 45) {
        d.pop();
      } else {
        const std::uint64_t kind = rng.below(16);
        const Tick delay = kind < 3   ? 0  // same tick
                           : kind < 4 ? static_cast<Tick>(rng.below(1u << 30))
                                      : static_cast<Tick>(rng.below(2000));
        d.push(d.now() + delay);
      }
      if (HasFatalFailure()) return;
    }
    d.check_sizes();
    d.drain();
    d.check_sizes();
  }
}

TEST(EventQueueDifferential, SameTickBurstWhileBucketZeroDrains) {
  Differential d;
  for (int i = 0; i < 8; ++i) d.push(ns(5));
  d.push(ns(6));
  d.push(ns(9));
  // Each pop at t = 5 ns schedules two more at the same tick (and one at
  // 6 ns), so the current tick keeps growing behind its head while it
  // drains.
  for (int i = 0; i < 200; ++i) {
    d.pop();
    ASSERT_FALSE(HasFatalFailure());
    if (d.now() == ns(5) && i < 100) {
      d.push(ns(5));
      d.push(ns(5));
      d.push(ns(6));
    }
  }
  d.drain();
  d.check_sizes();
}

TEST(EventQueueDifferential, PowerOfTwoBoundaries) {
  // Keys straddling every bit boundary: 2^k - 1, 2^k and 2^k + 1, pushed in
  // scrambled order (deeper than the run), then popped and re-pushed on
  // each one.
  Differential d;
  std::vector<Tick> keys;
  for (int k = 1; k < 62; ++k) {
    const Tick p = Tick{1} << k;
    keys.push_back(p + 1);
    keys.push_back(p - 1);
    keys.push_back(p);
  }
  for (std::size_t i = 0; i < keys.size(); ++i)
    d.push(keys[(i * 37) % keys.size()]);
  // Interleave: after each pop, push the next boundary triple above now().
  for (int i = 0; i < 120; ++i) {
    d.pop();
    ASSERT_FALSE(HasFatalFailure());
    const Tick now = d.now();
    d.push(now);
    if (now >= 1) d.push(now + 1);
  }
  d.drain();
  d.check_sizes();
}

TEST(EventQueueDifferential, KeysNearTwoToTheSixtySecond) {
  // Near the top of the Tick range, where keys differ first in bit 62.
  Differential d;
  const Tick base = Tick{1} << 62;
  d.push(3);
  d.push(base - 1);
  d.push(base + 5);
  d.push(base);
  d.push(base + 5);
  d.push(base - 1);
  d.pop();  // 3
  ASSERT_FALSE(HasFatalFailure());
  d.push(base - 2);
  d.push((Tick{1} << 62) + (Tick{1} << 61));
  for (int i = 0; i < 4; ++i) {
    d.pop();
    ASSERT_FALSE(HasFatalFailure());
    d.push(d.now() + (Tick{1} << 40));
    d.push(d.now());
  }
  d.drain();
  d.check_sizes();
}

TEST(EventQueueDifferential, RefillLeavesSeveralEqualTimes) {
  // Several equal-t groups pushed interleaved, all far above the first
  // pop: each group must come out in seq order.
  Differential d;
  d.push(0);
  for (int rep = 0; rep < 4; ++rep) {
    d.push(ns(300));
    d.push(ns(260));
    d.push(ns(300));
    d.push(ns(257));
    d.push(ns(260));
  }
  d.pop();  // t = 0; the rest sit together above it
  ASSERT_FALSE(HasFatalFailure());
  d.push(ns(257));  // joins its equal-t group after the refill set
  d.drain();
  d.check_sizes();
}

// ---------- tier boundaries: a 64-event sorted run before a heap ----------
//
// The tests below are shaped around a queue that keeps up to 64 near-future
// events in a sorted run and the rest in a binary heap, and pops the earlier
// of the two by (t, seq). They hold for any correct (t, seq) queue.

TEST(EventQueueDifferential, DepthsCrossingRunCapacity) {
  // Hold at each depth around one and two run capacities: every pop is
  // followed by a push, some earlier than everything pending (evicting the
  // run's last-due event when the run is full), some later than everything
  // (straight to the heap), some in between.
  for (const std::size_t depth :
       {std::size_t{1}, std::size_t{2}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{66}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, std::size_t{200}}) {
    SCOPED_TRACE(depth);
    Xoshiro256 rng(depth);
    Differential d;
    for (std::size_t i = 0; i < depth; ++i)
      d.push(static_cast<Tick>(rng.below(4 * depth)));
    for (int step = 0; step < 4000; ++step) {
      d.pop();
      if (HasFatalFailure()) return;
      const std::uint64_t kind = rng.below(4);
      const Tick delay =
          kind == 0   ? 0
          : kind == 1 ? static_cast<Tick>(8 * depth + rng.below(8))
                      : static_cast<Tick>(rng.below(4 * depth));
      d.push(d.now() + delay);
      if (HasFatalFailure()) return;
    }
    d.check_sizes();
    d.drain();
    d.check_sizes();
  }
}

TEST(EventQueueDifferential, EvictedEventTiesLaterSamePush) {
  // Fill the run with 64 distinct times, then push one earlier event: the
  // run's last-due event (t = 163 ns, seq 63) is evicted to the heap. After
  // a few pops a new t = 163 ns push fits in the run, with a higher seq, so
  // the heap top ties the run's back on t with the lower seq and must pop
  // first.
  Differential d;
  for (int i = 0; i < 64; ++i) d.push(ns(100 + i));
  d.push(ns(50));
  for (int i = 0; i < 4; ++i) {
    d.pop();
    ASSERT_FALSE(HasFatalFailure());
  }
  d.push(ns(163));
  d.push(ns(163));
  d.drain();
  d.check_sizes();
}

TEST(EventQueueDifferential, RunBackTiesLaterHeapPush) {
  // The other direction: the run is full and its last-due event is at
  // t = 163 ns; two more t = 163 ns pushes are later in (t, seq), so they go
  // past the run. The run's copy has the lowest seq and must pop first.
  Differential d;
  for (int i = 0; i < 64; ++i) d.push(ns(100 + i));
  d.push(ns(163));
  d.push(ns(163));
  d.drain();
  d.check_sizes();
}

TEST(EventQueueDifferential, PopsAlternateBetweenTiers) {
  // 128 even times: the first 64 fill the run, the rest are later and wait
  // past it. Popping 64 empties the run; then 64 odd times, each between
  // two of the waiting evens, go into the run. The drain must alternate
  // tiers on every pop; a second round repeats it with equal times, where
  // the waiting events hold the lower seq.
  for (const Tick odd : {Tick{1}, Tick{0}}) {
    SCOPED_TRACE(odd);
    Differential d;
    for (int k = 0; k < 128; ++k) d.push(2 * k);
    for (int k = 0; k < 64; ++k) {
      d.pop();
      ASSERT_FALSE(HasFatalFailure());
    }
    for (int k = 64; k < 128; ++k) d.push(2 * k + odd);
    d.check_sizes();
    d.drain();
    d.check_sizes();
  }
}

TEST(EventQueueDifferential, ManagerCycleTraffic) {
  // The kernel's measured traffic: 8 to 64 pending (now and then past 64),
  // every push 2^15..2^22 ps ahead (2 to 233 manager cycles of 18,000 ps)
  // or at the same tick, every time on a cycle multiple so equal times are
  // common.
  constexpr Tick kCycle = 18'000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    Differential d;
    std::size_t target = 8;
    for (int step = 0; step < 30000; ++step) {
      if (step % 500 == 0) target = 8 + rng.below(seed % 2 == 0 ? 57 : 90);
      if (d.size() > target || (d.size() >= 8 && rng.below(2) == 0)) {
        d.pop();
      } else {
        const Tick delay = rng.below(8) == 0
                               ? 0
                               : kCycle * static_cast<Tick>(2 + rng.below(232));
        d.push(d.now() + delay);
      }
      if (HasFatalFailure()) return;
    }
    d.check_sizes();
    d.drain();
    d.check_sizes();
  }
}

}  // namespace
}  // namespace nexus
