#include <gtest/gtest.h>

#include <sstream>

#include "nexus/task/trace.hpp"
#include "nexus/task/trace_io.hpp"

namespace nexus {
namespace {

Trace make_round_trip_trace() {
  Trace tr("roundtrip");
  ParamList p1;
  p1.push_back({0xABCDE, Dir::kOut});
  const TaskId a = tr.submit(3, us(10), p1);
  (void)a;
  ParamList p2;
  p2.push_back({0xABCDE, Dir::kIn});
  p2.push_back({0x1234567890AB, Dir::kInOut});
  tr.submit(4, ns(250), p2);
  tr.taskwait_on(0xABCDE);
  tr.taskwait();
  return tr;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = make_round_trip_trace();
  std::stringstream ss;
  write_trace(ss, original);

  Trace reread;
  std::string err;
  ASSERT_TRUE(read_trace(ss, &reread, &err)) << err;

  EXPECT_EQ(reread.name(), "roundtrip");
  ASSERT_EQ(reread.num_tasks(), original.num_tasks());
  for (TaskId i = 0; i < original.num_tasks(); ++i) {
    EXPECT_EQ(reread.task(i).fn, original.task(i).fn);
    EXPECT_EQ(reread.task(i).duration, original.task(i).duration);
    EXPECT_TRUE(reread.task(i).params == original.task(i).params);
  }
  ASSERT_EQ(reread.num_events(), original.num_events());
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    EXPECT_TRUE(reread.events()[i] == original.events()[i]) << "event " << i;
  }
}

// Every address is a 48-bit field: the widest one survives the text format
// under each direction and as a taskwait_on operand.
TEST(TraceIo, RoundTripHoldsAtAddrMask) {
  Trace original("widest");
  for (const Dir d : {Dir::kIn, Dir::kOut, Dir::kInOut})
    original.submit(1, ns(1), ParamList{Param{kAddrMask, d}, Param{kAddrMask - 1, Dir::kOut}});
  original.taskwait_on(kAddrMask);
  std::stringstream ss;
  write_trace(ss, original);

  Trace reread;
  std::string err;
  ASSERT_TRUE(read_trace(ss, &reread, &err)) << err;
  ASSERT_EQ(reread.num_tasks(), 3u);
  for (TaskId i = 0; i < 3; ++i)
    EXPECT_TRUE(reread.task(i).params == original.task(i).params) << "task " << i;
  ASSERT_EQ(reread.num_events(), 4u);
  EXPECT_TRUE(reread.events() == original.events());
  EXPECT_EQ(reread.events()[3].op(), TraceOp::kTaskwaitOn);
  EXPECT_EQ(reread.events()[3].addr(), kAddrMask);
}

// A 49-bit address would be truncated by the 48-bit field, so the reader
// rejects it and names the line.
TEST(TraceIo, RejectsOverwideAddressNamingLine) {
  {
    std::stringstream ss("trace t\ntask 0 1 100 1 1000000000000 in\nsubmit 0\n");
    Trace t;
    std::string err;
    EXPECT_FALSE(read_trace(ss, &t, &err));
    EXPECT_EQ(err, "address wider than 48 bits on line 2");
  }
  {
    std::stringstream ss("task 0 1 100 1 ff out\nsubmit 0\ntaskwait_on 10000000000ff\n");
    Trace t;
    std::string err;
    EXPECT_FALSE(read_trace(ss, &t, &err));
    EXPECT_EQ(err, "address wider than 48 bits on line 3");
  }
}

TEST(TraceIo, RejectsDuplicateAddressNamingLine) {
  std::stringstream ss("task 0 1 100 2 ff in ff out\nsubmit 0\n");
  Trace t;
  std::string err;
  EXPECT_FALSE(read_trace(ss, &t, &err));
  EXPECT_NE(err.find("on line 1"), std::string::npos) << err;
}

TEST(TraceIo, RejectsMalformedDirection) {
  std::stringstream ss("task 0 1 100 1 abc sideways\nsubmit 0\n");
  Trace t;
  std::string err;
  EXPECT_FALSE(read_trace(ss, &t, &err));
  EXPECT_NE(err.find("direction"), std::string::npos);
}

TEST(TraceIo, RejectsSubmitWithoutDeclaration) {
  std::stringstream ss("submit 5\n");
  Trace t;
  EXPECT_FALSE(read_trace(ss, &t));
}

TEST(TraceIo, RejectsTooManyParams) {
  std::stringstream ss("task 0 1 100 9 a in b in c in d in e in f in 10 in 11 in 12 in\nsubmit 0\n");
  Trace t;
  EXPECT_FALSE(read_trace(ss, &t));
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "task 0 1 100 1 ff out\n"
      "submit 0\n");
  Trace t;
  std::string err;
  ASSERT_TRUE(read_trace(ss, &t, &err)) << err;
  EXPECT_EQ(t.num_tasks(), 1u);
  EXPECT_EQ(t.task(0).params[0].addr, 0xFFu);
}

}  // namespace
}  // namespace nexus
