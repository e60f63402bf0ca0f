// Multi-application co-management tests: isolation of address spaces and
// barriers, shared-manager contention, and legality of combined schedules.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/multi_app.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

Trace chain_trace(int n, Tick dur) {
  Trace tr("chain");
  for (int i = 0; i < n; ++i) {
    ParamList p;
    p.push_back({0x1000, Dir::kInOut});
    tr.submit(0, dur, p);
  }
  tr.taskwait();
  return tr;
}

Trace independent_trace(int n, Tick dur) {
  Trace tr("indep");
  for (int i = 0; i < n; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, dur, p);
  }
  tr.taskwait();
  return tr;
}

TEST(MultiApp, SingleAppMatchesDriver) {
  // One app through run_multi_app is the same run as run_trace: the same
  // schedule entry by entry, for every manager kind and on a routed host
  // NoC too (RuntimeConfig::noc must not be dropped).
  const Trace tr = workloads::make_gaussian({.n = 80});
  auto make = [](int kind) -> std::unique_ptr<TaskManagerModel> {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    if (kind == 0) return std::make_unique<IdealManager>();
    if (kind == 1) return std::make_unique<NexusSharp>(cfg);
    return std::make_unique<NexusPP>();
  };
  for (const noc::TopologyKind host : {noc::TopologyKind::kIdeal, noc::TopologyKind::kMesh}) {
    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE(std::string(noc::to_string(host)) + " manager " + std::to_string(kind));
      std::vector<ScheduleEntry> s_single;
      std::vector<ScheduleEntry> s_multi;
      RuntimeConfig rc{.workers = 8};
      rc.noc.kind = host;
      rc.schedule_out = &s_single;
      const auto m1 = make(kind);
      const RunResult single = run_trace(tr, *m1, rc);
      rc.schedule_out = &s_multi;
      const auto m2 = make(kind);
      const MultiAppResult multi = run_multi_app({&tr}, *m2, rc);
      EXPECT_EQ(multi.makespan, single.makespan);
      EXPECT_EQ(multi.total_tasks, single.tasks);
      EXPECT_EQ(multi.utilization, single.utilization);
      ASSERT_EQ(s_multi.size(), s_single.size());
      for (std::size_t i = 0; i < s_single.size(); ++i) {
        EXPECT_EQ(s_multi[i].task, s_single[i].task) << "entry " << i;
        EXPECT_EQ(s_multi[i].worker, s_single[i].worker) << "entry " << i;
        EXPECT_EQ(s_multi[i].start, s_single[i].start) << "entry " << i;
        EXPECT_EQ(s_multi[i].end, s_single[i].end) << "entry " << i;
      }
    }
  }
}

TEST(MultiAppDeathTest, SeventeenAppsWouldAliasAddressWindows) {
  // App a's window starts at a << 44 inside the 48-bit space, so app 16
  // would wrap onto app 0's window: refuse instead of faking dependencies.
  const Trace tr = independent_trace(2, us(1));
  const std::vector<const Trace*> apps(17, &tr);
  IdealManager mgr;
  EXPECT_DEATH(run_multi_app(apps, mgr, RuntimeConfig{.workers = 2}),
               "up to 16 applications");
}

TEST(MultiApp, AddressSpacesAreIsolated) {
  // Two apps whose traces use the SAME raw addresses: a serial chain each.
  // Co-run with enough workers, the chains must overlap (no false
  // dependencies across apps), so the makespan equals one chain.
  const Trace a = chain_trace(10, us(10));
  const Trace b = chain_trace(10, us(10));
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.makespan, us(100));
  EXPECT_EQ(r.app_completion.size(), 2u);
}

TEST(MultiApp, BarriersAreScopedPerApp) {
  // App A: one long task, then taskwait, then a second long task.
  // App B: many short independent tasks. B must finish long before A's
  // barrier-delimited second phase would allow if barriers were global.
  Trace a("a");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    a.submit(0, us(100), p);
    a.taskwait();
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    a.submit(0, us(100), q);
    a.taskwait();
  }
  const Trace b = independent_trace(8, us(10));
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.app_completion[0], us(200));
  EXPECT_LE(r.app_completion[1], us(40));  // not held by A's taskwait
}

TEST(MultiApp, TaskwaitOnScopedPerApp) {
  // Both apps taskwait_on the same RAW address; placement must keep them
  // waiting on their OWN producer.
  Trace a("a");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    a.submit(0, us(50), p);
    a.taskwait_on(0x10);
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    a.submit(0, us(1), q);
    a.taskwait();
  }
  Trace b("b");
  {
    ParamList p;
    p.push_back({0x10, Dir::kOut});
    b.submit(0, us(5), p);
    b.taskwait_on(0x10);
    ParamList q;
    q.push_back({0x20, Dir::kOut});
    b.submit(0, us(1), q);
    b.taskwait();
  }
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  // B's wait releases at 5us; its second task ends ~6us. A's at ~51us.
  EXPECT_LE(r.app_completion[1], us(7));
  EXPECT_GE(r.app_completion[0], us(51));
}

TEST(MultiApp, SharedNexusSharpDrains) {
  // Two real workloads through one Nexus# instance: both complete, the
  // gather state drains, and co-running beats back-to-back serial runs.
  const Trace a = workloads::make_h264dec(workloads::h264_config(8));
  const Trace b = workloads::make_gaussian({.n = 250});
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 6;
  cfg.freq_mhz = 100.0;
  NexusSharp co(cfg);
  const MultiAppResult r = run_multi_app({&a, &b}, co, RuntimeConfig{.workers = 32});
  EXPECT_EQ(r.total_tasks, a.num_tasks() + b.num_tasks());
  EXPECT_EQ(co.sim_tasks_live(), 0u);

  NexusSharp s1(cfg);
  NexusSharp s2(cfg);
  const Tick serial =
      run_trace(a, s1, RuntimeConfig{.workers = 32}).makespan +
      run_trace(b, s2, RuntimeConfig{.workers = 32}).makespan;
  EXPECT_LT(r.makespan, serial);
}

TEST(MultiApp, PoolContentionStillDrains) {
  // A tiny shared pool forces both masters to block and hand slots back
  // and forth; liveness must hold.
  const Trace a = independent_trace(30, us(5));
  const Trace b = independent_trace(30, us(5));
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 2;
  cfg.freq_mhz = 100.0;
  cfg.pool_capacity = 4;
  NexusSharp mgr(cfg);
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.total_tasks, 60u);
  EXPECT_GT(r.makespan, 0);
}

TEST(MultiApp, EmptyTraceListIsWellDefined) {
  IdealManager mgr;
  const MultiAppResult r = run_multi_app({}, mgr, RuntimeConfig{.workers = 4});
  EXPECT_EQ(r.total_tasks, 0u);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_TRUE(r.app_completion.empty());
}

TEST(MultiApp, ZeroTaskAppContributesNothing) {
  // An app whose trace has no tasks (only a barrier) completes at 0 and
  // must not wedge the other app.
  Trace empty("empty");
  empty.taskwait();
  const Trace b = independent_trace(6, us(10));
  IdealManager mgr;
  const MultiAppResult r =
      run_multi_app({&empty, &b}, mgr, RuntimeConfig{.workers = 2});
  EXPECT_EQ(r.total_tasks, 6u);
  ASSERT_EQ(r.app_completion.size(), 2u);
  EXPECT_EQ(r.app_completion[0], 0);
  EXPECT_GT(r.app_completion[1], 0);
}

TEST(MultiApp, EndGaugesReconcileWithUtilization) {
  // The metrics binding added for parity with the single-app driver: per
  // core, busy + idle == makespan, and the busy sum reproduces the
  // report's utilization exactly.
  const Trace a = workloads::make_gaussian({.n = 60});
  const Trace b = independent_trace(20, us(5));
  IdealManager mgr;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 4;
  rc.metrics = &reg;
  const MultiAppResult r = run_multi_app({&a, &b}, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("runtime/makespan_ps")->gauge, r.makespan);
  EXPECT_EQ(snap.find("runtime/apps")->gauge, 2);
  std::int64_t busy_sum = 0;
  for (std::uint32_t w = 0; w < 4; ++w) {
    const std::string core = "runtime/core" + std::to_string(w);
    const auto* busy = snap.find(core + "/busy_ps");
    const auto* idle = snap.find(core + "/idle_ps");
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(idle, nullptr);
    EXPECT_EQ(busy->gauge + idle->gauge, r.makespan);
    busy_sum += busy->gauge;
  }
  EXPECT_NEAR(r.utilization,
              static_cast<double>(busy_sum) /
                  (static_cast<double>(r.makespan) * 4.0),
              1e-12);
  // Per-app completion gauges exist (single-digit family: no padding).
  EXPECT_EQ(snap.find("runtime/app0/completion_ps")->gauge,
            r.app_completion[0]);
  EXPECT_EQ(snap.find("runtime/app1/completion_ps")->gauge,
            r.app_completion[1]);
}

TEST(MultiApp, Deterministic) {
  const Trace a = workloads::make_gaussian({.n = 60});
  const Trace b = independent_trace(50, us(3));
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  NexusSharp m1(cfg);
  NexusSharp m2(cfg);
  const MultiAppResult r1 = run_multi_app({&a, &b}, m1, RuntimeConfig{.workers = 8});
  const MultiAppResult r2 = run_multi_app({&a, &b}, m2, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.app_completion, r2.app_completion);
}

}  // namespace
}  // namespace nexus
