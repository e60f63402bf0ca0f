// The DES scheduler's pop-order contract: earliest time first, ties broken
// by issue sequence, so same-tick events pop in insertion order and a
// far-future straggler waits its turn; plus the max-depth high-water the
// sim/queue/max_depth gauge reports.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "nexus/sim/event_queue.hpp"
#include "nexus/sim/time.hpp"

namespace nexus {
namespace {

TEST(QueueKind, ToString) {
  EXPECT_STREQ(to_string(QueueKind::kBinaryHeap), "heap");
  EXPECT_EQ(default_queue_kind(), QueueKind::kBinaryHeap);
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

}  // namespace
}  // namespace nexus
