// Nexus# model tests: Fig. 4/5 pipeline behaviour, the Section IV-E
// micro-benchmark, distributed-insertion semantics, native taskwait_on,
// stall recovery, and schedule legality across TG counts and workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

constexpr Tick kCycle = 10000;  // 10 ns at 100 MHz (used for timing tests)

NexusSharpConfig cfg_at_100mhz(std::uint32_t tgs) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = tgs;
  cfg.freq_mhz = 100.0;
  return cfg;
}

ParamList params_n(std::size_t n, Addr base, Dir dir = Dir::kOut) {
  ParamList p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back({base + 0x40 * static_cast<Addr>(i), dir});
  return p;
}

// Addresses whose XOR-folds land on 4 distinct graphs of a 4-TG config:
// fold(0x20)=1, fold(0x40)=2, fold(0x60)=3, fold(0x80)=4 -> TGs 1,2,3,0.
ParamList four_spread_params() {
  ParamList p;
  p.push_back({0x20, Dir::kOut});
  p.push_back({0x40, Dir::kOut});
  p.push_back({0x60, Dir::kOut});
  p.push_back({0x80, Dir::kOut});
  return p;
}

// ---------- Fig. 4 cycle fidelity ----------

TEST(NexusSharpTiming, FourParamTaskAcrossFourGraphs) {
  // Params arrive at cycles 4/6/8/10 (IPh=2 + 2/param), cross the New Args
  // FIFO (3), insert in parallel (5 each): done 12/14/16/18; records visible
  // 15/17/19/21; gather grants (2 cy, one record per graph per grant) end at
  // 17/19/21/23; conclusion -> fifo (3) -> WB (3): ready at cycle 29.
  Trace tr("t");
  tr.submit(0, us(5), four_spread_params());
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
  EXPECT_EQ(r.makespan, 29 * kCycle + us(5));
}

TEST(NexusSharpTiming, FourParamTaskOnSingleGraphSerializes) {
  // Same task, 1 TG: inserts serialize (5 cy each back-to-back), records at
  // 15/20/25/30, single-record grants end 17/22/27/32, +3 +3 = 38 cycles —
  // about Nexus++'s 39: one task graph is "most analogous to Nexus++".
  Trace tr("t");
  tr.submit(0, us(5), four_spread_params());
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(1));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
  EXPECT_EQ(r.makespan, 38 * kCycle + us(5));
}

TEST(NexusSharpTiming, InsertionStartsBeforeWholeTaskArrives) {
  // The core Fig. 4 claim: distribution is immediate, so a 6-param task's
  // first parameter is already inserted while later ones are still on the
  // bus, and parameters proceed in parallel across graphs. With 6 graphs
  // the task is ready at cycle 33; a single graph serializes the six
  // insertions and needs 48.
  Trace tr("t");
  tr.submit(0, us(1), params_n(6, 0x40));
  tr.taskwait();
  NexusSharp six(cfg_at_100mhz(6));
  NexusSharp one(cfg_at_100mhz(1));
  const Tick t6 = run_trace(tr, six, RuntimeConfig{.workers = 1}).makespan - us(1);
  const Tick t1 = run_trace(tr, one, RuntimeConfig{.workers = 1}).makespan - us(1);
  EXPECT_EQ(t6, 33 * kCycle);
  EXPECT_EQ(t1, 48 * kCycle);
}

TEST(NexusSharpTiming, SingleParamFastPath) {
  // 1-param task: receive 2+2+1 = 5, fifo 3, insert 5, Rdy buffer 3,
  // arbiter forward 1, fifo 3, WB 3 => ready at cycle 22.
  Trace tr("t");
  tr.submit(0, us(1), params_n(1, 0x40));
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
  EXPECT_EQ(r.makespan, 22 * kCycle + us(1));
}

TEST(NexusSharpTiming, BestCaseWriteBackEveryFiveCycles) {
  // Fig. 5's steady state: with the front end pacing at 5 cycles per
  // 1-param task (2 header + 2 addr + 1 pool write), independent tasks
  // reach write-back 5 cycles apart.
  Trace tr("t");
  constexpr int kTasks = 8;
  for (int i = 0; i < kTasks; ++i)
    tr.submit(0, us(5), params_n(1, 0x1000 + 0x40 * static_cast<Addr>(i)));
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = kTasks});
  // First ready at 22; each subsequent 5 cycles later; all run 5us parallel.
  EXPECT_EQ(r.makespan, (22 + 5 * (kTasks - 1)) * kCycle + us(5));
}

TEST(NexusSharpTiming, FrequencyScalesHardwareLatency) {
  Trace tr("t");
  tr.submit(0, us(5), four_spread_params());
  tr.taskwait();
  NexusSharpConfig cfg = cfg_at_100mhz(4);
  cfg.freq_mhz = 50.0;
  NexusSharp mgr(cfg);
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
  EXPECT_EQ(r.makespan, 29 * 2 * kCycle + us(5));
}

// ---------- Section IV-E micro-benchmark ----------

TEST(NexusSharpTiming, MicroFiveTasksTwoParams) {
  // "Using a micro benchmark built after [19] that includes inserting 5
  // independent tasks, each with two parameters, Nexus# (with one task
  // graph) consumes 78 cycles compared to 172 cycles consumed in [19]."
  // Our model measures 68 cycles end-to-end (submission of the first packet
  // to the last ready write-back): the same order, ~13% below the paper's
  // VHDL count (docs/BENCHMARKS.md, "Known deviations"). Pin the value as a
  // regression anchor and keep it decisively under Task Superscalar's 172.
  Trace tr("t");
  for (int i = 0; i < 5; ++i)
    tr.submit(0, us(1), params_n(2, 0x1000 + 0x100 * static_cast<Addr>(i)));
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(1));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 5});
  const Tick hw_cycles = (r.makespan - us(1)) / kCycle;
  EXPECT_EQ(hw_cycles, 68);
  EXPECT_LT(hw_cycles, 172);
}

// ---------- structural behaviour ----------

TEST(NexusSharpDeathTest, SelfStallFailsNamingTaskParameterAndSet) {
  // One task graph with a 16-set x 2-way table: the task's first two
  // parameters fill set 0, which only this task can drain, so its third
  // (same set) can never be inserted and the run must say so.
  NexusSharpConfig cfg = cfg_at_100mhz(1);
  cfg.table.sets = 16;
  cfg.table.ways = 2;
  Trace tr("t");
  ParamList params;
  params.push_back({0x1000, Dir::kOut});
  params.push_back({0x1400, Dir::kIn});
  params.push_back({0x1800, Dir::kInOut});
  tr.submit(0, us(1), params);
  tr.taskwait();
  EXPECT_DEATH(
      {
        NexusSharp mgr(cfg);
        (void)run_trace(tr, mgr, RuntimeConfig{.workers = 1});
      },
      "nexus#: task 0 stalls forever on parameter 2 of 3: all 2 ways of set 0");
}

TEST(NexusSharp, SupportsTaskwaitOnNatively) {
  NexusSharp mgr(cfg_at_100mhz(4));
  EXPECT_TRUE(mgr.supports_taskwait_on());
  EXPECT_EQ(mgr.taskwait_on_query_cost(), 5 * kCycle);
}

TEST(NexusSharp, TaskwaitOnOverlapsUnlikeNexusPP) {
  // The h264dec-defining difference: waiting on one datum's producer lets
  // the master continue while unrelated slow tasks still run.
  Trace tr("t");
  tr.submit(0, us(100), params_n(1, 0xA00));
  tr.submit(0, us(1), params_n(1, 0xB00));
  tr.taskwait_on(0xB00);
  tr.submit(0, us(50), params_n(1, 0xC00));
  tr.taskwait();
  NexusSharp sharp(cfg_at_100mhz(4));
  NexusPP npp;
  const Tick t_sharp = run_trace(tr, sharp, RuntimeConfig{.workers = 4}).makespan;
  const Tick t_npp = run_trace(tr, npp, RuntimeConfig{.workers = 4}).makespan;
  EXPECT_LT(t_sharp, us(110));  // t2 overlaps the slow writer
  EXPECT_GT(t_npp, us(150));    // the fallback barrier serializes
}

TEST(NexusSharp, PoolBackpressureBlocksMaster) {
  NexusSharpConfig cfg = cfg_at_100mhz(2);
  cfg.pool_capacity = 2;
  NexusSharp mgr(cfg);
  Trace tr("t");
  for (int i = 0; i < 6; ++i)
    tr.submit(0, us(10), params_n(1, 0x1000 + 0x400 * static_cast<Addr>(i)));
  tr.taskwait();
  telemetry::MetricRegistry reg;
  const RunResult r =
      run_trace(tr, mgr, RuntimeConfig{.workers = 1, .metrics = &reg});
  EXPECT_EQ(mgr.pool().peak(), 2u);
  EXPECT_EQ(reg.snapshot().counter_at("nexus#/tasks_in"), 6u);
  EXPECT_GE(r.makespan, us(60));
}

TEST(NexusSharp, DependentTaskKickedAfterFinish) {
  Trace tr("t");
  tr.submit(0, us(10), params_n(1, 0x1000));
  {
    ParamList p;
    p.push_back({0x1000, Dir::kIn});
    tr.submit(0, us(1), p);
  }
  tr.taskwait();
  NexusSharp mgr(cfg_at_100mhz(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 2});
  // t1 waits for t0 and a finish-path trip; makespan comfortably above
  // t0_end + t1 but below adding a whole second pipeline latency.
  EXPECT_GT(r.makespan, us(11));
  EXPECT_LT(r.makespan, us(12));
}

TEST(NexusSharp, GaussianFanoutDrainsCleanly) {
  // 249 readers kicked at once (Section VI): chained kick-off lists feed
  // the Waiting Tasks path; everything must drain with no gather leaks.
  const Trace tr = workloads::make_gaussian({.n = 250});
  NexusSharp mgr(cfg_at_100mhz(2));
  telemetry::MetricRegistry reg;
  const RunResult r =
      run_trace(tr, mgr, RuntimeConfig{.workers = 16, .metrics = &reg});
  EXPECT_EQ(r.tasks, 31374u);
  EXPECT_EQ(reg.snapshot().counter_at("runtime/dispatches"), 31374u);
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
}

TEST(NexusSharp, TableStallRecovery) {
  NexusSharpConfig cfg = cfg_at_100mhz(2);
  cfg.table.sets = 8;
  cfg.table.ways = 2;
  cfg.table.kol_entries = 2;
  cfg.table.chain_probe_limit = 4;
  cfg.pool_capacity = 64;
  NexusSharp mgr(cfg);
  Trace tr("t");
  for (int i = 0; i < 40; ++i)
    tr.submit(0, us(500), params_n(1, 0x1000 + 0x40 * static_cast<Addr>(i)));
  tr.taskwait();
  std::vector<ScheduleEntry> sched;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 1;
  rc.schedule_out = &sched;
  rc.metrics = &reg;
  (void)run_trace(tr, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_at("nexus#/tg0/table/stalls") +
                snap.counter_at("nexus#/tg1/table/stalls"),
            0u);
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

TEST(NexusSharp, WorkSpreadsAcrossGraphs) {
  // On h264 (hundreds of distinct addresses) every graph must see work.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharp mgr(cfg_at_100mhz(6));
  telemetry::MetricRegistry reg;
  (void)run_trace(tr, mgr, RuntimeConfig{.workers = 8, .metrics = &reg});
  const telemetry::Snapshot snap = reg.snapshot();
  for (std::uint32_t g = 0; g < 6; ++g)
    EXPECT_GT(snap.counter_at("nexus#/tg" + std::to_string(g) + "/args"), 0u)
        << "task graph " << g << " idle";
}

TEST(NexusSharp, ArbiterSeesContentionUnderLoad) {
  // With 31k tasks racing through 2 graphs the single-grant arbiter port
  // must regularly find more than one buffer class pending (conflicts) and
  // defer pumps on a busy port (retries); the per-TGU New Args queues must
  // actually queue. This is the visibility the telemetry layer exists for.
  const Trace tr = workloads::make_gaussian({.n = 120});
  telemetry::MetricRegistry reg;
  NexusSharp mgr(cfg_at_100mhz(2));
  RuntimeConfig rc;
  rc.workers = 16;
  rc.metrics = &reg;
  (void)run_trace(tr, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_at("nexus#/arbiter/conflicts"), 0u);
  EXPECT_GT(snap.counter_at("nexus#/arbiter/retries"), 0u);
  EXPECT_GT(snap.counter_at("nexus#/arbiter/grants_dep"), 0u);
  EXPECT_GT(snap.counter_at("nexus#/arbiter/grants_wait"), 0u);
  for (int g = 0; g < 2; ++g) {
    const std::string tg = "nexus#/tg" + std::to_string(g);
    const telemetry::MetricValue* depth = snap.find(tg + "/new_q_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_GT(depth->hist.count, 0u);
    EXPECT_GT(depth->hist.max, 1u) << "graph " << g << " never queued";
  }
}

TEST(NexusSharp, TelemetryDoesNotPerturbTiming) {
  // Attaching a registry must observe, never alter: identical makespans
  // with and without metrics.
  const Trace tr = workloads::make_gaussian({.n = 120});
  NexusSharp plain(cfg_at_100mhz(2));
  const Tick t_plain = run_trace(tr, plain, RuntimeConfig{.workers = 16}).makespan;
  telemetry::MetricRegistry reg;
  NexusSharp metered(cfg_at_100mhz(2));
  RuntimeConfig rc;
  rc.workers = 16;
  rc.metrics = &reg;
  const Tick t_metered = run_trace(tr, metered, rc).makespan;
  EXPECT_EQ(t_plain, t_metered);
}

// ---------- schedule legality across TG counts and workloads ----------

struct SharpCase {
  std::uint32_t tgs;
  std::string workload;
};

class NexusSharpWorkloadTest : public ::testing::TestWithParam<SharpCase> {};

TEST_P(NexusSharpWorkloadTest, ScheduleIsLegalAndDrains) {
  const auto& pc = GetParam();
  Trace tr;
  if (pc.workload == "gaussian-120") {
    tr = workloads::make_gaussian({.n = 120});
  } else if (pc.workload == "h264-8x8") {
    tr = workloads::make_h264dec(workloads::h264_config(8));
  } else if (pc.workload == "sc-small") {
    workloads::StreamclusterConfig cfg;
    cfg.total_tasks = 3000;
    cfg.phases = 8;
    cfg.total_work = ms(30);
    tr = workloads::make_streamcluster(cfg);
  } else {  // "mixed": rot-cc-like pair chains
    workloads::RotccConfig cfg;
    cfg.lines = 500;
    cfg.total_work = ms(5);
    tr = workloads::make_rotcc(cfg);
  }
  NexusSharp mgr(cfg_at_100mhz(pc.tgs));
  std::vector<ScheduleEntry> sched;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 16;
  rc.schedule_out = &sched;
  rc.metrics = &reg;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(reg.snapshot().counter_at("runtime/dispatches"), tr.num_tasks());
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

INSTANTIATE_TEST_SUITE_P(
    TgByWorkload, NexusSharpWorkloadTest,
    ::testing::Values(SharpCase{1, "gaussian-120"}, SharpCase{2, "gaussian-120"},
                      SharpCase{6, "gaussian-120"}, SharpCase{8, "gaussian-120"},
                      SharpCase{1, "h264-8x8"}, SharpCase{2, "h264-8x8"},
                      SharpCase{4, "h264-8x8"}, SharpCase{6, "h264-8x8"},
                      SharpCase{8, "h264-8x8"}, SharpCase{6, "sc-small"},
                      SharpCase{2, "mixed"}, SharpCase{6, "mixed"}),
    [](const ::testing::TestParamInfo<SharpCase>& pi) {
      std::string n = "tg" + std::to_string(pi.param.tgs) + "_" + pi.param.workload;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---------- arbiter record reordering (kMeta over the NoC) ----------

/// Captures every write-back the arbiter delivers, directly as a host.
struct RecordingHost final : RuntimeHost {
  std::vector<TaskId> ready;
  void task_ready(Simulation&, TaskId id) override { ready.push_back(id); }
  void master_resume(Simulation&) override {}
};

/// Drive a bare SharpArbiter with an explicit event schedule: each entry is
/// (time-in-cycles, op, a, b). Returns the committed (write-back) task set.
std::vector<TaskId> run_arbiter_schedule(
    const NexusSharpConfig& cfg,
    const std::vector<std::tuple<std::int64_t, std::uint32_t, std::uint64_t,
                                 std::uint64_t>>& events,
    std::uint64_t* meta_parks = nullptr) {
  noc::Network net(cfg.noc, sharp_noc_endpoints(cfg.num_task_graphs),
                   cfg.freq_mhz, 0);
  detail::SharpArbiter arb(cfg, &net, sharp_arbiter_node(cfg.num_task_graphs),
                           sharp_io_node());
  Simulation sim;
  telemetry::MetricRegistry reg;
  sim.bind({.metrics = &reg});
  RecordingHost host;
  arb.attach(sim, &host, "nexus#/arbiter");
  net.attach(sim);
  for (const auto& [cycle, op, a, b] : events)
    sim.schedule(static_cast<Tick>(cycle) * kCycle, arb.component_id(), op, a,
                 b);
  sim.run();
  EXPECT_EQ(arb.sim_tasks_live(), 0u) << "gather state must drain";
  if (meta_parks != nullptr)
    *meta_parks = reg.snapshot().counter_at("nexus#/arbiter/meta_parks");
  return host.ready;
}

/// Pack (task, value<<32): kMeta's nparams and kDep's contributes share the
/// encoding.
std::uint64_t meta_rec(TaskId id, std::uint32_t value) {
  return static_cast<std::uint64_t>(id) |
         (static_cast<std::uint64_t>(value) << 32);
}

TEST(NexusSharpArbiter, MetaAfterReadyParksThenCommitsIdentically) {
  // A single-param ready task, in order (meta first) and adversarially
  // reordered (ready first): both schedules must commit exactly task 7,
  // and the reordered one must have parked the ready record.
  const NexusSharpConfig cfg = cfg_at_100mhz(2);
  using detail::SharpArbiter;
  std::uint64_t parks = 0;
  const std::vector<TaskId> in_order = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kMeta, meta_rec(7, 1), 0},
            {1, SharpArbiter::kReady, 7, 0}});
  const std::vector<TaskId> reordered = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kReady, 7, 0},
            {1, SharpArbiter::kMeta, meta_rec(7, 1), 0}},
      &parks);
  EXPECT_EQ(in_order, (std::vector<TaskId>{7}));
  EXPECT_EQ(reordered, in_order) << "commit set must not depend on order";
  EXPECT_EQ(parks, 1u);
}

TEST(NexusSharpArbiter, GrantsReadyThenWaitingThenDepCounts) {
  // Section IV-D's service priority. Task 2 first parks in the Dep Counts
  // Table with one blocked parameter. At cycle 10 task 4's ready record
  // takes the port, and one record of each class queues behind it in the
  // reverse of the priority order: a dep-count record that concludes
  // task 3 ready, the kick that readies task 2, and task 1's ready record.
  // The write-backs then follow the grants: Ready, then Waiting, then Dep.
  const NexusSharpConfig cfg = cfg_at_100mhz(2);
  using detail::SharpArbiter;
  const std::vector<TaskId> committed = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kMeta, meta_rec(1, 1), 0},
            {0, SharpArbiter::kMeta, meta_rec(2, 1), 0},
            {0, SharpArbiter::kMeta, meta_rec(3, 1), 0},
            {0, SharpArbiter::kMeta, meta_rec(4, 1), 0},
            {1, SharpArbiter::kDep, meta_rec(2, 1), 0},  // task 2 blocks
            {10, SharpArbiter::kReady, 4, 0},            // holds the port
            {10, SharpArbiter::kDep, meta_rec(3, 0), 1},
            {10, SharpArbiter::kWait, 2, 0},
            {10, SharpArbiter::kReady, 1, 0}});
  EXPECT_EQ(committed, (std::vector<TaskId>{4, 1, 2, 3}));
}

TEST(NexusSharpArbiter, MetaAfterDepsAndKickCommitsIdentically) {
  // A two-param task whose blocking dependence is kicked before the
  // descriptor even lands: dep records from both graphs, then the kick,
  // then kMeta dead last. The gather must absorb the kick (pending_dec)
  // and conclude the task ready — the same commit set as the in-order
  // schedule.
  const NexusSharpConfig cfg = cfg_at_100mhz(2);
  using detail::SharpArbiter;
  const std::vector<TaskId> in_order = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kMeta, meta_rec(3, 2), 0},
            {1, SharpArbiter::kDep, meta_rec(3, 1), 0},  // blocking param
            {2, SharpArbiter::kDep, meta_rec(3, 0), 1},  // free param
            {3, SharpArbiter::kWait, 3, 0}});
  const std::vector<TaskId> reordered = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kDep, meta_rec(3, 1), 0},
            {1, SharpArbiter::kDep, meta_rec(3, 0), 1},
            {2, SharpArbiter::kWait, 3, 0},
            {3, SharpArbiter::kMeta, meta_rec(3, 2), 0}});
  EXPECT_EQ(in_order, (std::vector<TaskId>{3}));
  EXPECT_EQ(reordered, in_order);
}

TEST(NexusSharpArbiter, InterleavedTasksReorderedCommitTheSameSet) {
  // Several tasks with interleaved, adversarially shuffled record streams:
  // a parked ready (task 10), a late meta behind a full gather (task 11,
  // stays blocked -> parked in dep counts), and a normal in-order task 12.
  const NexusSharpConfig cfg = cfg_at_100mhz(2);
  using detail::SharpArbiter;
  std::uint64_t parks = 0;
  const std::vector<TaskId> committed = run_arbiter_schedule(
      cfg, {{0, SharpArbiter::kReady, 10, 0},
            {0, SharpArbiter::kDep, meta_rec(11, 1), 0},
            {1, SharpArbiter::kMeta, meta_rec(12, 1), 0},
            {1, SharpArbiter::kDep, meta_rec(11, 0), 1},
            {2, SharpArbiter::kMeta, meta_rec(11, 2), 0},  // concludes: blocked
            {3, SharpArbiter::kReady, 12, 0},
            {4, SharpArbiter::kMeta, meta_rec(10, 1), 0},  // releases the park
            {5, SharpArbiter::kWait, 11, 0}},              // kicks 11 ready
      &parks);
  std::vector<TaskId> sorted = committed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<TaskId>{10, 11, 12}));
  EXPECT_EQ(parks, 1u);
}

TEST(NexusSharp, TorusMetaOverNocKeepsSchedulesLegal) {
  // Whole-stack version of the reordering contract: on a torus the kMeta
  // descriptor is routed traffic and really can land after ready records.
  // The run must still execute every task exactly once, produce a
  // hazard-legal schedule, and commit the same task set as the in-order
  // (ideal side-band) baseline.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharpConfig cfg = cfg_at_100mhz(6);
  cfg.noc.kind = noc::TopologyKind::kTorus;
  NexusSharp mgr(cfg);
  std::vector<ScheduleEntry> sched;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 32;
  rc.schedule_out = &sched;
  rc.metrics = &reg;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  ASSERT_EQ(sched.size(), tr.num_tasks());
  std::string error;
  EXPECT_TRUE(validate_schedule(tr, sched, &error)) << error;
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
  EXPECT_EQ(reg.snapshot().counter_at("runtime/dispatches"), tr.num_tasks());
}

TEST(NexusSharp, DeterministicAcrossRuns) {
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharp a(cfg_at_100mhz(6));
  NexusSharp b(cfg_at_100mhz(6));
  EXPECT_EQ(run_trace(tr, a, RuntimeConfig{.workers = 16}).makespan,
            run_trace(tr, b, RuntimeConfig{.workers = 16}).makespan);
}

// ---------- the headline comparison, in miniature ----------

TEST(NexusSharp, BeatsNexusPPOnFineGrainedWavefront) {
  // h264dec-8x8 on many cores: Nexus# (6 TGs) must beat Nexus++ — both the
  // distributed front end and native taskwait_on contribute.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharp sharp(cfg_at_100mhz(6));
  NexusPP npp;
  const Tick t_sharp = run_trace(tr, sharp, RuntimeConfig{.workers = 32}).makespan;
  const Tick t_npp = run_trace(tr, npp, RuntimeConfig{.workers = 32}).makespan;
  EXPECT_LT(t_sharp, t_npp);
}

TEST(NexusSharp, MoreGraphsHelpOnManyCores) {
  // Scalability in TG count (the Fig. 7 axis), on the finest h264 we can
  // run quickly: 6 TGs must not be slower than 1 TG.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(4));
  NexusSharp one(cfg_at_100mhz(1));
  NexusSharp six(cfg_at_100mhz(6));
  const Tick t1 = run_trace(tr, one, RuntimeConfig{.workers = 64}).makespan;
  const Tick t6 = run_trace(tr, six, RuntimeConfig{.workers = 64}).makespan;
  EXPECT_LE(t6, t1);
}

}  // namespace
}  // namespace nexus
