// Host-simulation driver tests: scheduling semantics, barrier handling,
// the ideal manager against hand-computed makespans and the independent
// list-scheduler oracle, and the Nanos cost model's contention behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/list_scheduler.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

ParamList p_out(Addr a) { return ParamList{Param{a, Dir::kOut}}; }
ParamList p_inout(Addr a) { return ParamList{Param{a, Dir::kInOut}}; }

RunResult run_ideal(const Trace& tr, std::uint32_t workers) {
  IdealManager mgr;
  return run_trace(tr, mgr, RuntimeConfig{.workers = workers});
}

// ---------- ideal manager: hand-computed makespans ----------

TEST(IdealRun, SingleTask) {
  Trace tr("t");
  tr.submit(0, us(10), p_out(0x10));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 1).makespan, us(10));
  EXPECT_EQ(run_ideal(tr, 4).makespan, us(10));
}

TEST(IdealRun, IndependentTasksScalePerfectly) {
  Trace tr("t");
  for (int i = 0; i < 8; ++i) tr.submit(0, us(10), p_out(0x100 + 0x40u * static_cast<Addr>(i)));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 1).makespan, us(80));
  EXPECT_EQ(run_ideal(tr, 2).makespan, us(40));
  EXPECT_EQ(run_ideal(tr, 4).makespan, us(20));
  EXPECT_EQ(run_ideal(tr, 8).makespan, us(10));
  EXPECT_EQ(run_ideal(tr, 16).makespan, us(10));  // no more parallelism
}

TEST(IdealRun, ChainSerializes) {
  Trace tr("t");
  for (int i = 0; i < 5; ++i) tr.submit(0, us(7), p_inout(0x10));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 8).makespan, us(35));
}

TEST(IdealRun, DiamondDag) {
  // a -> (b, c) -> d; durations 10, 20, 30, 5.
  Trace tr("t");
  tr.submit(0, us(10), p_out(0xA));
  {
    ParamList p{Param{0xA, Dir::kIn}, Param{0xB, Dir::kOut}};
    tr.submit(0, us(20), p);
  }
  {
    ParamList p{Param{0xA, Dir::kIn}, Param{0xC, Dir::kOut}};
    tr.submit(0, us(30), p);
  }
  {
    ParamList p{Param{0xB, Dir::kIn}, Param{0xC, Dir::kIn}, Param{0xD, Dir::kOut}};
    tr.submit(0, us(5), p);
  }
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 2).makespan, us(45));  // 10 + max(20,30) + 5
  EXPECT_EQ(run_ideal(tr, 1).makespan, us(65));  // fully serial
  EXPECT_EQ(critical_path(tr), us(45));
}

TEST(IdealRun, TaskwaitBlocksSubmission) {
  // Two independent tasks separated by a taskwait cannot overlap.
  Trace tr("t");
  tr.submit(0, us(10), p_out(0x10));
  tr.taskwait();
  tr.submit(0, us(10), p_out(0x20));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 4).makespan, us(20));
}

TEST(IdealRun, TaskwaitOnBlocksOnlyOnProducer) {
  // t0 (slow, writes A), t1 (fast, writes B); taskwait_on(B) must not wait
  // for t0, so t2 (writes C) overlaps with t0.
  Trace tr("t");
  tr.submit(0, us(100), p_out(0xA));
  tr.submit(0, us(10), p_out(0xB));
  tr.taskwait_on(0xB);
  tr.submit(0, us(90), p_out(0xC));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 4).makespan, us(100));  // t2 runs t=10..100
}

TEST(IdealRun, TaskwaitOnAlreadyFinishedProducer) {
  Trace tr("t");
  tr.submit(0, us(10), p_out(0xA));
  tr.submit(0, us(50), p_out(0xB));
  tr.taskwait_on(0xA);  // producer finishes long before the wait matters
  tr.submit(0, us(50), p_out(0xC));
  tr.taskwait();
  EXPECT_EQ(run_ideal(tr, 4).makespan, us(60));  // C starts at 10
}

TEST(IdealRun, FifoDispatchOrder) {
  // One worker: tasks run in readiness order even if later ones are shorter.
  Trace tr("t");
  tr.submit(0, us(30), p_out(0x10));
  tr.submit(0, us(1), p_out(0x20));
  tr.submit(0, us(1), p_out(0x30));
  tr.taskwait();
  const RunResult r = run_ideal(tr, 1);
  EXPECT_EQ(r.makespan, us(32));
}

TEST(IdealRun, UtilizationAccounting) {
  Trace tr("t");
  for (int i = 0; i < 4; ++i) tr.submit(0, us(10), p_out(0x100 + 0x40u * static_cast<Addr>(i)));
  tr.taskwait();
  const RunResult r = run_ideal(tr, 4);
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
  const RunResult r2 = run_ideal(tr, 8);
  EXPECT_DOUBLE_EQ(r2.utilization, 0.5);
}

// ---------- cross-validation: DES+IdealManager == list scheduler ----------

class IdealOracleTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {};

TEST_P(IdealOracleTest, DesMatchesListScheduler) {
  const auto& [name, workers] = GetParam();
  Trace tr;
  if (name == "gauss100") {
    tr = workloads::make_gaussian({.n = 100});
  } else if (name == "h264-8x8") {
    tr = workloads::make_h264dec(workloads::h264_config(8));
  } else if (name == "cray") {
    tr = workloads::make_cray();
  } else {
    workloads::StreamclusterConfig cfg;
    cfg.total_tasks = 4000;
    cfg.phases = 10;
    cfg.total_work = ms(20);
    tr = workloads::make_streamcluster(cfg);
  }
  const RunResult des = run_ideal(tr, workers);
  EXPECT_EQ(des.makespan, list_schedule_makespan(tr, workers))
      << name << " on " << workers << " workers";
  // The critical path lower-bounds every schedule.
  EXPECT_GE(des.makespan, critical_path(tr));
}

INSTANTIATE_TEST_SUITE_P(
    TracesXWorkers, IdealOracleTest,
    ::testing::Combine(::testing::Values("gauss100", "h264-8x8", "cray", "sc-small"),
                       ::testing::Values(1u, 3u, 16u, 256u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint32_t>>& pi) {
      auto n = std::get<0>(pi.param) + "_w" + std::to_string(std::get<1>(pi.param));
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(IdealRun, ManyWorkersReachCriticalPath) {
  const Trace tr = workloads::make_gaussian({.n = 60});
  EXPECT_EQ(run_ideal(tr, 100000).makespan, critical_path(tr));
}

// ---------- determinism ----------

TEST(Runtime, DeterministicAcrossRuns) {
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  const RunResult a = run_ideal(tr, 16);
  const RunResult b = run_ideal(tr, 16);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
}

// ---------- Nanos cost model ----------

TEST(Nanos, SingleTaskCostBreakdown) {
  Trace tr("t");
  tr.submit(0, us(10), p_out(0x10));
  tr.taskwait();
  NanosConfig cfg;
  cfg.create_cost = us(2);
  cfg.insert_per_param = us(1);
  cfg.dispatch_cs = us(3);
  cfg.finish_cs = us(4);
  NanosModel mgr(cfg);
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
  // create(2) + insert(1) -> ready at 3; dispatch CS ends 6; exec 10 -> 16;
  // makespan is the task completion (the completion CS holds the worker but
  // the barrier releases on task completion).
  EXPECT_EQ(r.makespan, us(16));
}

TEST(Nanos, SubmissionSerializesOnMaster) {
  // 100 tiny tasks, 4 workers: master-side cost (create+insert) bounds the
  // rate; speedup over 1 worker must be well below 4.
  Trace tr("t");
  for (int i = 0; i < 100; ++i)
    tr.submit(0, us(2), p_out(0x1000 + 0x40u * static_cast<Addr>(i)));
  tr.taskwait();
  NanosModel m1;
  NanosModel m4;
  const Tick t1 = run_trace(tr, m1, RuntimeConfig{.workers = 1}).makespan;
  const Tick t4 = run_trace(tr, m4, RuntimeConfig{.workers = 4}).makespan;
  // Tasks are 2us; Nanos costs several us per task, so extra workers barely help.
  EXPECT_LT(static_cast<double>(t1) / static_cast<double>(t4), 1.5);
}

TEST(Nanos, LockContentionGrowsWithWorkers) {
  // Medium tasks: with more workers the runtime lock sees more dispatch and
  // completion sections; its total queueing wait must grow.
  workloads::StreamclusterConfig cfg;
  cfg.total_tasks = 800;
  cfg.phases = 2;
  cfg.total_work = ms(80);  // 100us tasks
  const Trace tr = make_streamcluster(cfg);
  NanosModel m2;
  NanosModel m32;
  (void)run_trace(tr, m2, RuntimeConfig{.workers = 2});
  (void)run_trace(tr, m32, RuntimeConfig{.workers = 32});
  EXPECT_GT(m32.lock().total_wait(), m2.lock().total_wait());
}

TEST(Nanos, CoarseTasksStillScale) {
  // c-ray-like: 6ms tasks dwarf runtime overheads; 8 workers ~ 8x.
  Trace tr("t");
  for (int i = 0; i < 64; ++i)
    tr.submit(0, ms(6), p_out(0x1000 + 0x40u * static_cast<Addr>(i)));
  tr.taskwait();
  NanosModel m1;
  NanosModel m8;
  const Tick t1 = run_trace(tr, m1, RuntimeConfig{.workers = 1}).makespan;
  const Tick t8 = run_trace(tr, m8, RuntimeConfig{.workers = 8}).makespan;
  const double speedup = static_cast<double>(t1) / static_cast<double>(t8);
  EXPECT_GT(speedup, 7.0);
  EXPECT_LE(speedup, 8.1);
}

}  // namespace
}  // namespace nexus
