// Driver and trace edge cases: degenerate traces, barrier corner cases,
// master-side costs, and configuration extremes across manager models.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

ParamList p_out(Addr a) { return ParamList{Param{a, Dir::kOut}}; }

TEST(RuntimeEdge, TaskwaitBeforeAnySubmit) {
  Trace tr("t");
  tr.taskwait();
  tr.submit(0, us(5), p_out(0x10));
  tr.taskwait();
  EXPECT_EQ(run_trace(tr, *std::make_unique<IdealManager>(),
                      RuntimeConfig{.workers = 1})
                .makespan,
            us(5));
}

TEST(RuntimeEdge, ConsecutiveTaskwaitsAreIdempotent) {
  Trace tr("t");
  tr.submit(0, us(5), p_out(0x10));
  tr.taskwait();
  tr.taskwait();
  tr.taskwait();
  IdealManager mgr;
  EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 2}).makespan, us(5));
}

TEST(RuntimeEdge, TaskwaitOnUnsubmittedRegionIsImmediate) {
  // Address written by an earlier (finished) task: the wait costs nothing.
  Trace tr("t");
  tr.submit(0, us(5), p_out(0x10));
  tr.taskwait();
  tr.taskwait_on(0x10);
  tr.submit(0, us(5), p_out(0x20));
  tr.taskwait();
  IdealManager mgr;
  EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 2}).makespan, us(10));
}

TEST(RuntimeEdge, TrailingSubmitsWithoutFinalTaskwaitStillDrain) {
  Trace tr("t");
  tr.submit(0, us(5), p_out(0x10));
  tr.submit(0, us(7), p_out(0x20));
  // No final taskwait: the driver must still run everything to completion.
  IdealManager mgr;
  EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 2}).makespan, us(7));
}

TEST(RuntimeEdge, OneTickTasks) {
  Trace tr("t");
  for (int i = 0; i < 100; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, 1, p);  // 1 ps
  }
  tr.taskwait();
  IdealManager mgr;
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 3});
  EXPECT_EQ(r.makespan, 34);  // ceil(100/3) 1-ps slots
}

TEST(RuntimeEdge, MoreWorkersThanTasks) {
  Trace tr("t");
  for (int i = 0; i < 3; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, us(9), p);
  }
  tr.taskwait();
  IdealManager mgr;
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1000});
  EXPECT_EQ(r.makespan, us(9));
}

TEST(RuntimeEdge, MakespanIncludesTheTrailingTaskwaitOnQuery) {
  Trace tr("t");
  for (int i = 0; i < 10; ++i)
    tr.submit(0, us(1), p_out(0x1000 + 0x40 * static_cast<Addr>(i)));
  tr.taskwait();
  tr.taskwait_on(0x1000);
  NanosModel nanos;
  std::vector<ScheduleEntry> sched;
  const Tick makespan =
      run_trace(tr, nanos, RuntimeConfig{.workers = 10, .schedule_out = &sched})
          .makespan;
  Tick last_end = 0;
  for (const ScheduleEntry& e : sched) last_end = std::max(last_end, e.end);
  // Nanos serializes submission and dispatch in software, so the last task
  // ends at 83.8 us. The master's trailing taskwait_on query then costs one
  // barrier wake (2 us): the makespan includes the master's own progress.
  EXPECT_EQ(last_end, ns(83800));
  EXPECT_EQ(makespan, last_end + NanosConfig{}.barrier_wake);
}

TEST(RuntimeEdge, NexusSharpPoolOfOne) {
  // Degenerate window: exactly one in-flight task; everything serializes
  // but must remain live.
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 2;
  cfg.freq_mhz = 100.0;
  cfg.pool_capacity = 1;
  NexusSharp mgr(cfg);
  Trace tr("t");
  for (int i = 0; i < 8; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, us(2), p);
  }
  tr.taskwait();
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.tasks, 8u);
  EXPECT_GE(r.makespan, us(16));  // fully serialized by the window
  EXPECT_EQ(mgr.pool().peak(), 1u);
}

TEST(RuntimeEdge, SingleTaskGraphAtThirtyTwo) {
  // The distribution function's upper bound: 32 graphs must work.
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 32;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  const Trace tr = workloads::make_gaussian({.n = 80});
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
}

TEST(RuntimeEdge, WorkloadConfigVariants) {
  // Generators must hold their invariants away from the paper defaults.
  {
    workloads::H264Config cfg = workloads::h264_config(4);
    cfg.frames = 3;
    cfg.total_tasks = 0;  // derive: decodes + entropy only, no deblock
    cfg.total_tasks = 3u * 30 * 17 + 3;
    cfg.total_work = ms(100);
    const Trace tr = make_h264dec(cfg);
    EXPECT_EQ(tr.num_tasks(), cfg.total_tasks);
    EXPECT_TRUE(tr.validate());
    // 3 frames: only frame 2 needs a buffer-recycle wait.
    std::size_t waits = 0;
    for (const auto& ev : tr.events())
      if (ev.op() == TraceOp::kTaskwaitOn) ++waits;
    EXPECT_EQ(waits, 1u);
  }
  {
    workloads::StreamclusterConfig cfg;
    cfg.total_tasks = 50;
    cfg.phases = 1;
    cfg.total_work = ms(1);
    const Trace tr = make_streamcluster(cfg);
    EXPECT_EQ(tr.num_tasks(), 50u);
    EXPECT_TRUE(tr.validate());
  }
  {
    const Trace tr = workloads::make_gaussian({.n = 2});
    EXPECT_EQ(tr.num_tasks(), 2u);  // one pivot, one elimination
    EXPECT_TRUE(tr.validate());
  }
}

TEST(RuntimeEdge, UtilizationNeverExceedsOne) {
  const Trace tr = workloads::make_gaussian({.n = 100});
  for (const std::uint32_t workers : {1u, 7u, 64u}) {
    IdealManager mgr;
    const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = workers});
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace nexus
