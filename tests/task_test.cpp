#include <gtest/gtest.h>

#include "nexus/task/task.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/task/trace_stats.hpp"

namespace nexus {
namespace {

ParamList params1(Addr a, Dir d) { return ParamList{Param{a, d}}; }

TEST(Task, ValidateAcceptsWellFormed) {
  TaskDescriptor t;
  t.id = 0;
  t.duration = us(5);
  t.params.push_back({0x1000, Dir::kIn});
  t.params.push_back({0x2000, Dir::kInOut});
  EXPECT_TRUE(validate_task(t));
}

TEST(Task, ValidateRejectsNoParams) {
  TaskDescriptor t;
  t.duration = us(1);
  EXPECT_FALSE(validate_task(t));
}

TEST(Task, ValidateRejectsDuplicateAddress) {
  TaskDescriptor t;
  t.duration = us(1);
  t.params.push_back({0x1000, Dir::kIn});
  t.params.push_back({0x1000, Dir::kOut});
  EXPECT_FALSE(validate_task(t));
}

// A parameter's address is a 48-bit field, so a wider one must fail where
// it is built rather than be truncated into a different address.
TEST(Task, ParamAbortsOnOverwideAddress) {
  EXPECT_EQ((Param{kAddrMask, Dir::kInOut}).addr, kAddrMask);
  EXPECT_DEATH((void)(Param{Addr{1} << 48, Dir::kIn}), "wider than 48 bits");
}

TEST(Task, DirPredicates) {
  EXPECT_FALSE(is_write(Dir::kIn));
  EXPECT_TRUE(is_write(Dir::kOut));
  EXPECT_TRUE(is_write(Dir::kInOut));
}

TEST(Trace, SubmitAssignsDenseIds) {
  Trace tr("t");
  EXPECT_EQ(tr.submit(1, us(1), params1(0x10, Dir::kOut)), 0u);
  EXPECT_EQ(tr.submit(1, us(2), params1(0x20, Dir::kOut)), 1u);
  EXPECT_EQ(tr.num_tasks(), 2u);
  EXPECT_EQ(tr.total_work(), us(3));
}

TEST(Trace, KeepsTotalWorkAndTaskwaitOnCurrent) {
  Trace tr("t");
  const TaskId a = tr.submit(1, us(1), params1(0x10, Dir::kOut));
  tr.submit(1, us(2), params1(0x20, Dir::kOut));
  EXPECT_FALSE(tr.has_taskwait_on());
  tr.set_duration(a, us(5));
  EXPECT_EQ(tr.total_work(), us(7));
  tr.taskwait();
  EXPECT_FALSE(tr.has_taskwait_on());
  tr.taskwait_on(0x10);
  EXPECT_TRUE(tr.has_taskwait_on());
}

TEST(Trace, TaskwaitOnAbortsOnOverwideAddress) {
  Trace tr("t");
  tr.submit(0, us(1), params1(0x10, Dir::kOut));
  EXPECT_DEATH(tr.taskwait_on((Addr{1} << 48) | 0x10), "wider than 48 bits");
}

TEST(Trace, ValidatePassesForWellFormed) {
  Trace tr("t");
  tr.submit(0, us(1), params1(0x10, Dir::kOut));
  tr.taskwait_on(0x10);
  tr.taskwait();
  std::string err;
  EXPECT_TRUE(tr.validate(&err)) << err;
}

TEST(Trace, ValidateFlagsUnwrittenTaskwaitOn) {
  Trace tr("t");
  tr.submit(0, us(1), params1(0x10, Dir::kIn));
  tr.taskwait_on(0x999);
  EXPECT_FALSE(tr.validate());
}

TEST(TraceStats, ComputesTableIIColumns) {
  Trace tr("mini");
  // 3 tasks: durations 2us, 4us, 6us; params 1, 2, 2.
  tr.submit(0, us(2), params1(0x100, Dir::kOut));
  {
    ParamList p;
    p.push_back({0x100, Dir::kIn});
    p.push_back({0x200, Dir::kOut});
    tr.submit(0, us(4), p);
  }
  {
    ParamList p;
    p.push_back({0x200, Dir::kIn});
    p.push_back({0x300, Dir::kOut});
    tr.submit(0, us(6), p);
  }
  tr.taskwait();
  const TraceStats s = compute_stats(tr);
  EXPECT_EQ(s.num_tasks, 3u);
  EXPECT_EQ(s.total_work, us(12));
  EXPECT_EQ(s.avg_task, us(4));
  EXPECT_EQ(s.min_params, 1u);
  EXPECT_EQ(s.max_params, 2u);
  EXPECT_EQ(s.num_taskwaits, 1u);
  EXPECT_EQ(s.num_taskwait_ons, 0u);
  EXPECT_EQ(s.distinct_addresses, 3u);
  EXPECT_EQ(s.params_histogram[1], 1u);
  EXPECT_EQ(s.params_histogram[2], 2u);
}

}  // namespace
}  // namespace nexus
