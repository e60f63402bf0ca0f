// Edge-case and death-test coverage for nexus/common containers and the
// assertion macros. The simulator leans on NEXUS_ASSERT staying enabled in
// release builds (a silent overflow corrupts timing results), so these tests
// pin the abort-on-violation contract in every build type.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "nexus/common/assert.hpp"
#include "nexus/common/fixed_ring.hpp"
#include "nexus/common/inline_vec.hpp"

namespace nexus {
namespace {

using FixedRingDeathTest = ::testing::Test;
using InlineVecDeathTest = ::testing::Test;
using NexusAssertDeathTest = ::testing::Test;

// ---------------------------------------------------------------------------
// FixedRing
// ---------------------------------------------------------------------------

TEST(FixedRingEdge, WrapAroundKeepsFifoOrder) {
  FixedRing<int> ring(3);  // rounded up to 4
  ASSERT_EQ(ring.capacity(), 4u);
  for (int i = 1; i <= 4; ++i) ring.push(i);
  EXPECT_EQ(ring.pop(), 1);
  ring.push(5);  // head has advanced; this write wraps
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 2; i <= 5; ++i) EXPECT_EQ(ring.pop(), i);
  EXPECT_TRUE(ring.empty());
}

TEST(FixedRingEdge, GrowsWhileWrappedKeepingFifoOrder) {
  FixedRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.push(i);
  EXPECT_EQ(ring.pop(), 0);
  EXPECT_EQ(ring.pop(), 1);
  ring.push(4);
  ring.push(5);  // full again, and the live range wraps the storage end
  ring.push(6);  // doubles the storage mid-wrap
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 5u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring.at(i), static_cast<int>(i) + 2);
  for (int i = 7; i < 10; ++i) ring.push(i);  // fills the grown ring
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 2; i < 10; ++i) EXPECT_EQ(ring.pop(), i);
  EXPECT_TRUE(ring.empty());
}

TEST(FixedRingEdge, DefaultConstructedAllocatesOnFirstPush) {
  FixedRing<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push(1);
  EXPECT_EQ(ring.capacity(), FixedRing<int>::kFirstCapacity);
  EXPECT_EQ(ring.pop(), 1);
  EXPECT_TRUE(ring.empty());
}

TEST(FixedRingEdge, ClearResetsToEmpty) {
  FixedRing<std::string> ring(4);
  ring.push("a");
  ring.push("b");
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);  // storage kept for reuse
  ring.push("c");  // usable again after clear
  EXPECT_EQ(ring.front(), "c");
}

TEST(FixedRingEdge, CapacityOneCyclesIndefinitely) {
  FixedRing<int> ring(1);
  for (int i = 0; i < 10; ++i) {
    ring.push(i);
    EXPECT_EQ(ring.capacity(), 1u);  // never grows
    EXPECT_EQ(ring.pop(), i);
  }
}

TEST(FixedRingDeathTest, PopOnEmptyAborts) {
  FixedRing<int> ring(2);
  EXPECT_DEATH({ (void)ring.pop(); }, "pop on empty FixedRing");
}

TEST(FixedRingDeathTest, FrontOnEmptyAborts) {
  FixedRing<int> ring(2);
  EXPECT_DEATH({ (void)ring.front(); }, "front on empty FixedRing");
}

TEST(FixedRingDeathTest, AtPastSizeAborts) {
  FixedRing<int> ring(4);
  ring.push(1);
  EXPECT_DEATH({ (void)ring.at(1); }, "NEXUS_ASSERT failed");
}

// ---------------------------------------------------------------------------
// InlineVec
// ---------------------------------------------------------------------------

TEST(InlineVecEdge, FillToCapacityAndIterate) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i * 10);
  EXPECT_TRUE(v.full());
  int expect = 0;
  for (const int x : v) {
    EXPECT_EQ(x, expect);
    expect += 10;
  }
}

TEST(InlineVecEdge, EqualityComparesSizeThenElements) {
  InlineVec<int, 4> a{1, 2};
  InlineVec<int, 4> b{1, 2};
  InlineVec<int, 4> c{1, 2, 3};
  InlineVec<int, 4> d{1, 9};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(InlineVecEdge, ClearAllowsRefill) {
  InlineVec<int, 2> v{7, 8};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 9);
}

using IntVec2 = InlineVec<int, 2>;

TEST(InlineVecDeathTest, PushBeyondCapacityAborts) {
  IntVec2 v{1, 2};
  EXPECT_DEATH(v.push_back(3), "InlineVec overflow");
}

TEST(InlineVecDeathTest, OversizedInitializerListAborts) {
  EXPECT_DEATH({ IntVec2 v({1, 2, 3}); }, "NEXUS_ASSERT failed");
}

// ---------------------------------------------------------------------------
// NEXUS_ASSERT / NEXUS_DCHECK build-type contract
// ---------------------------------------------------------------------------

TEST(NexusAssertDeathTest, AssertFiresInEveryBuildType) {
  // Always-on: release builds must still catch invariant violations.
  EXPECT_DEATH(NEXUS_ASSERT(false), "NEXUS_ASSERT failed");
}

TEST(NexusAssertDeathTest, AssertMsgIncludesMessage) {
  EXPECT_DEATH(NEXUS_ASSERT_MSG(1 + 1 == 3, "arithmetic is broken"),
               "arithmetic is broken");
}

TEST(NexusAssertDeathTest, DcheckFollowsNdebug) {
#if defined(NDEBUG)
  // Compiled out in release: evaluating must be a no-op, not an abort.
  NEXUS_DCHECK(false);
  SUCCEED();
#else
  EXPECT_DEATH(NEXUS_DCHECK(false), "NEXUS_ASSERT failed");
#endif
}

TEST(NexusAssertEdge, PassingAssertsAreSilent) {
  NEXUS_ASSERT(true);
  NEXUS_ASSERT_MSG(2 + 2 == 4, "unused");
  NEXUS_DCHECK(true);
  SUCCEED();
}

}  // namespace
}  // namespace nexus
