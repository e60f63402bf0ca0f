// Multi-tenant Nexus# tests: clustered arbiter hierarchy correctness,
// flat-mode bit-identity, per-tenant quota NACK isolation and liveness,
// WRR starvation regression, fairness-harness arithmetic, the lazy-release
// arrival path, and the determinism contracts of the tenant driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nexus/harness/fairness.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

NexusSharpConfig sharp_cfg(std::uint32_t clusters) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  cfg.arbiter_clusters = clusters;
  return cfg;
}

/// Owns the per-tenant serving workloads a run_tenants call references.
struct TenantSet {
  std::vector<workloads::ArrivalSchedule> scheds;
  std::vector<Trace> traces;
  std::vector<TenantStream> streams;
};

TenantSet make_tenants(const std::vector<double>& rates_hz,
                       std::uint64_t tasks_each, std::uint64_t seed = 0x7E4A) {
  TenantSet set;
  set.scheds.reserve(rates_hz.size());
  set.traces.reserve(rates_hz.size());
  for (std::size_t t = 0; t < rates_hz.size(); ++t) {
    workloads::ArrivalConfig c;
    c.rate_hz = rates_hz[t];
    c.tasks = tasks_each;
    c.clients = 1;
    c.seed = seed + t;
    c.chain_fraction = 0.0;
    set.scheds.push_back(workloads::generate_arrivals(c));
    set.traces.push_back(workloads::make_serving_trace(set.scheds.back()));
  }
  for (std::size_t t = 0; t < rates_hz.size(); ++t)
    set.streams.push_back({&set.traces[t], set.scheds[t].submission.release});
  return set;
}

// --- clustered arbiter hierarchy -----------------------------------------

TEST(Clustered, DrainsAndScheduleIsValid) {
  const Trace tr = workloads::make_gaussian({.n = 150});
  NexusSharp mgr(sharp_cfg(2));
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = 16;
  rc.schedule_out = &sched;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
  EXPECT_TRUE(mgr.clustered());
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

TEST(Clustered, FourClustersValidToo) {
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  NexusSharp mgr(sharp_cfg(4));
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = 16;
  rc.schedule_out = &sched;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
  std::string err;
  EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
}

TEST(Clustered, ZeroAndOneClusterAreFlatBitIdentical) {
  // arbiter_clusters 0 and 1 must both take the legacy single-arbiter
  // pipeline: not just equal makespans, the entire schedule bit-identical.
  const Trace tr = workloads::make_gaussian({.n = 120});
  std::vector<ScheduleEntry> s0;
  std::vector<ScheduleEntry> s1;
  {
    NexusSharp mgr(sharp_cfg(0));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = &s0;
    run_trace(tr, mgr, rc);
    EXPECT_FALSE(mgr.clustered());
  }
  {
    NexusSharp mgr(sharp_cfg(1));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = &s1;
    run_trace(tr, mgr, rc);
    EXPECT_FALSE(mgr.clustered());
  }
  ASSERT_EQ(s0.size(), s1.size());
  for (std::size_t i = 0; i < s0.size(); ++i) {
    EXPECT_EQ(s0[i].task, s1[i].task);
    EXPECT_EQ(s0[i].worker, s1[i].worker);
    EXPECT_EQ(s0[i].start, s1[i].start);
    EXPECT_EQ(s0[i].end, s1[i].end);
  }
}

TEST(Clustered, Deterministic) {
  const Trace tr = workloads::make_gaussian({.n = 100});
  std::vector<ScheduleEntry> a;
  std::vector<ScheduleEntry> b;
  for (std::vector<ScheduleEntry>* out : {&a, &b}) {
    NexusSharp mgr(sharp_cfg(2));
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = out;
    run_trace(tr, mgr, rc);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST(Clustered, SingleClusterParticipationDrains) {
  // Single-param tasks: each touches exactly one task graph, so exactly one
  // cluster participates and the root must not wait on the idle cluster.
  Trace tr("oneparam");
  for (int i = 0; i < 40; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, us(5), p);
  }
  tr.taskwait();
  NexusSharp mgr(sharp_cfg(4));
  const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 8});
  EXPECT_EQ(r.tasks, 40u);
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
}

// --- admission control / quotas -------------------------------------------

TEST(Tenancy, QuotaNackIsolatesHeavyTenant) {
  // Heavy tenant 0 offered 50x the light tenant's rate, pool quota far
  // below its burst depth: the heavy stream must be NACK-held while the
  // light one keeps flowing, and everything still drains.
  TenantSet set = make_tenants({5e6, 1e5}, 300);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.pool_capacity = 64;
  cfg.tenancy.tenants = 2;
  cfg.tenancy.quota.pool = 8;
  NexusSharp mgr(cfg);
  telemetry::MetricRegistry reg;
  const TenantRunResult r = run_tenants(
      set.streams, mgr, RuntimeConfig{.workers = 4, .metrics = &reg});
  EXPECT_EQ(r.total_tasks, 600u);
  EXPECT_EQ(r.tenants[0].tasks, 300u);
  EXPECT_EQ(r.tenants[1].tasks, 300u);
  EXPECT_GT(r.tenants[0].nack_holds, 0u);
  EXPECT_GT(reg.snapshot().counter_at("nexus#/admission/nacks"), 0u);
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
}

TEST(Tenancy, TinyQuotaStaysLive) {
  // quota.pool = 1 serializes the tenant completely; the NACK/resume
  // retry loop must still drain every task.
  TenantSet set = make_tenants({2e6}, 120);
  NexusSharpConfig cfg = sharp_cfg(0);  // flat mode polices quotas too
  cfg.tenancy.tenants = 1;
  cfg.tenancy.quota.pool = 1;
  NexusSharp mgr(cfg);
  const TenantRunResult r =
      run_tenants(set.streams, mgr, RuntimeConfig{.workers = 2});
  EXPECT_EQ(r.total_tasks, 120u);
  EXPECT_GT(r.tenants[0].nack_holds, 0u);
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
}

TEST(Tenancy, DisabledTenancyNeverNacks) {
  TenantSet set = make_tenants({2e6, 2e6}, 150);
  NexusSharp mgr(sharp_cfg(2));
  telemetry::MetricRegistry reg;
  const TenantRunResult r = run_tenants(
      set.streams, mgr, RuntimeConfig{.workers = 8, .metrics = &reg});
  EXPECT_EQ(r.total_tasks, 300u);
  EXPECT_EQ(r.tenants[0].nack_holds + r.tenants[1].nack_holds, 0u);
  // Without tenancy there is no admission stage to count NACKs at all.
  EXPECT_EQ(reg.snapshot().find("nexus#/admission/nacks"), nullptr);
}

// --- determinism ----------------------------------------------------------

TEST(Tenancy, RunTwiceBitIdentity) {
  // The co-run's every per-task latency must repeat exactly (the repo-wide
  // determinism contract).
  TenantSet set = make_tenants({1e6, 4e6, 5e5}, 150);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.tenancy.tenants = 3;
  cfg.tenancy.quota.pool = 16;
  cfg.tenancy.weights = {1, 4, 1};

  std::vector<TenantRunResult> results;
  for (int run = 0; run < 2; ++run) {
    NexusSharp mgr(cfg);
    results.push_back(
        run_tenants(set.streams, mgr, RuntimeConfig{.workers = 8}));
  }

  EXPECT_EQ(results[0].makespan, results[1].makespan);
  ASSERT_EQ(results[0].tenants.size(), results[1].tenants.size());
  for (std::size_t t = 0; t < results[0].tenants.size(); ++t) {
    EXPECT_EQ(results[0].tenants[t].raw, results[1].tenants[t].raw)
        << "tenant " << t;
    EXPECT_EQ(results[0].tenants[t].nack_holds,
              results[1].tenants[t].nack_holds);
  }
}

// --- lazy releases ---------------------------------------------------------

TEST(Tenancy, NackResumeSubmitsBeforeAFarRelease) {
  // Tenant 0 offers a burst at t = 0 under quota.pool = 1, so each task
  // after the first is NACK-held until its predecessor frees its pool slot.
  // Tenant 1's only task arrives far in the future, so while tenant 0 is
  // held the port's one queued wake-up is for that release. Every resume
  // must still submit, and step on to the next task, at its own time.
  constexpr Tick kFar = ms(10);
  constexpr int kBurst = 4;
  Trace burst("burst");
  for (int i = 0; i < kBurst; ++i)
    burst.submit(0, us(5), {{0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut}});
  Trace late("late");
  late.submit(0, us(5), {{0x1000, Dir::kOut}});
  const std::vector<TenantStream> streams = {
      {&burst, std::vector<Tick>(kBurst, 0)}, {&late, {kFar}}};

  NexusSharpConfig cfg = sharp_cfg(0);
  cfg.tenancy.tenants = 2;
  cfg.tenancy.quota.pool = 1;
  NexusSharp mgr(cfg);
  const TenantRunResult r =
      run_tenants(streams, mgr, RuntimeConfig{.workers = 2});
  ASSERT_EQ(r.tenants[0].tasks, static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(r.tenants[0].nack_holds, static_cast<std::uint64_t>(kBurst - 1));
  // The burst runs back to back: a few task lengths, nowhere near kFar.
  EXPECT_LT(r.tenants[0].max_ps, kBurst * us(20));
  EXPECT_GE(r.makespan, kFar);
}

TEST(Tenancy, QueueDepthIsBoundedByTheInFlightSet) {
  // Releases are lazy (one wake-up per port, at its next release), so the
  // pending-event set holds only what is in flight: per task in the pool a
  // few manager-pipeline events, per worker a completion or free event,
  // and per stream at most a wake-up. It must not grow with the offered
  // task count, for FIFO and WRR root arbitration alike.
  TenantSet set = make_tenants({8e6, 2e5, 2e5, 2e5}, 250);
  std::uint64_t offered = 0;
  for (const TenantStream& s : set.streams) offered += s.release.size();
  constexpr std::uint32_t kWorkers = 4;
  for (const bool weighted : {false, true}) {
    NexusSharpConfig cfg = sharp_cfg(2);
    cfg.pool_capacity = 48;
    cfg.tenancy.tenants = 4;
    cfg.tenancy.weighted = weighted;
    if (weighted) cfg.tenancy.quota.pool = 12;
    NexusSharp mgr(cfg);
    telemetry::MetricRegistry reg;
    RuntimeConfig rc;
    rc.workers = kWorkers;
    rc.metrics = &reg;
    const TenantRunResult r = run_tenants(set.streams, mgr, rc);
    ASSERT_EQ(r.total_tasks, offered);

    const std::uint64_t bound =
        2 * (cfg.pool_capacity + kWorkers) + set.streams.size();
    ASSERT_LT(bound, offered) << "the bound must be able to catch eager releases";
    const auto depth = static_cast<std::uint64_t>(
        reg.snapshot().gauge_at("sim/queue/max_depth"));
    EXPECT_GT(depth, 0u);
    EXPECT_LE(depth, bound) << (weighted ? "wrr" : "fifo");
  }
}

// --- QoS / starvation regression ------------------------------------------

TEST(Tenancy, WrrAndQuotasProtectLightTenants) {
  // One heavy bursty tenant against three light tenants on a small pool.
  // Unpoliced (no quotas, FIFO root), the heavy burst monopolizes the pool
  // and the light tenants' mean latency inflates; with per-tenant quotas +
  // WRR the light tenants must stay close to their unpoliced-from-light
  // baseline. Regression gate: QoS light mean < unpoliced light mean.
  TenantSet set = make_tenants({8e6, 2e5, 2e5, 2e5}, 250);

  auto light_mean = [](const TenantRunResult& r) {
    double sum = 0.0;
    for (std::size_t t = 1; t < r.tenants.size(); ++t)
      sum += r.tenants[t].mean_ps;
    return sum / static_cast<double>(r.tenants.size() - 1);
  };

  NexusSharpConfig base = sharp_cfg(2);
  base.pool_capacity = 48;

  NexusSharpConfig fifo = base;
  fifo.tenancy.tenants = 4;
  fifo.tenancy.weighted = false;  // no quotas, FIFO root: the baseline
  NexusSharp m_fifo(fifo);
  const TenantRunResult r_fifo =
      run_tenants(set.streams, m_fifo, RuntimeConfig{.workers = 4});

  NexusSharpConfig qos = base;
  qos.tenancy.tenants = 4;
  qos.tenancy.quota.pool = 12;
  qos.tenancy.weighted = true;
  qos.tenancy.weights = {1, 1, 1, 1};
  NexusSharp m_qos(qos);
  const TenantRunResult r_qos =
      run_tenants(set.streams, m_qos, RuntimeConfig{.workers = 4});

  EXPECT_EQ(r_fifo.total_tasks, 1000u);
  EXPECT_EQ(r_qos.total_tasks, 1000u);
  EXPECT_LT(light_mean(r_qos), light_mean(r_fifo));
}

TEST(Tenancy, MaxTenantsAtQuotaOneDrainValid) {
  // The hostile corner: the 256-tenant cap, one pool slot per tenant and a
  // pool far smaller than the tenant count, so tenants are NACK-held and
  // the pool fills. Everything must drain, and the merged schedule must be
  // a legal execution of the tenants' traces.
  constexpr std::uint32_t kTenants = 256;
  constexpr int kTasks = 3;
  std::vector<Trace> traces;
  std::vector<TenantStream> streams;
  traces.reserve(kTenants);
  Trace merged("merged");
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    Trace& tr = traces.emplace_back("tenant");
    std::vector<Tick> release;
    for (int i = 0; i < kTasks; ++i) {
      // A two-task chain plus an independent task per tenant; releases
      // interleave the tenants within a few microseconds.
      const Addr a = 0x1000 + 0x40 * static_cast<Addr>(i == 2 ? 1 : 0);
      const ParamList params{{a, i == 1 ? Dir::kIn : Dir::kOut}};
      tr.submit(0, us(1 + (t + static_cast<std::uint32_t>(i)) % 3u), params);
      release.push_back(ns(10) * static_cast<Tick>((t * 7 + 3 * i) % 512));
    }
    std::sort(release.begin(), release.end());
    streams.push_back({&tr, release});
    // The driver places tenant t in the address window t << 40.
    for (TaskId i = 0; i < tr.num_tasks(); ++i) {
      ParamList placed = tr.task(i).params;
      for (Param& p : placed) p = {(p.addr + (static_cast<Addr>(t) << 40)) & kAddrMask, p.dir};
      merged.submit(tr.task(i).fn, tr.task(i).duration, placed);
    }
  }
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.pool_capacity = 32;
  cfg.tenancy.tenants = kTenants;
  cfg.tenancy.quota.pool = 1;
  NexusSharp mgr(cfg);
  std::vector<ScheduleEntry> sched;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.schedule_out = &sched;
  const TenantRunResult r = run_tenants(streams, mgr, rc);
  EXPECT_EQ(r.total_tasks, std::uint64_t{kTenants} * kTasks);
  std::uint64_t holds = 0;
  for (const TenantLatency& lat : r.tenants) {
    EXPECT_EQ(lat.tasks, static_cast<std::uint64_t>(kTasks));
    holds += lat.nack_holds;
  }
  EXPECT_GT(holds, 0u);
  EXPECT_EQ(mgr.pool().peak(), cfg.pool_capacity);
  EXPECT_EQ(mgr.sim_tasks_live(), 0u);
  std::string err;
  EXPECT_TRUE(validate_schedule(merged, sched, &err)) << err;
}

// --- fairness harness ------------------------------------------------------

TEST(Fairness, JainIndexMath) {
  EXPECT_DOUBLE_EQ(harness::jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(harness::jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(harness::jain_index({0.0, 0.0}), 0.0);
  const double j = harness::jain_index({2.0, 1.0});
  EXPECT_GT(j, 0.5);
  EXPECT_LT(j, 1.0);
}

TEST(Fairness, ReportAndGaugesAreConsistent) {
  TenantSet set = make_tenants({2e6, 1e6}, 120);
  harness::ManagerSpec spec = harness::ManagerSpec::nexussharp(4, 100.0);
  spec.sharp.arbiter_clusters = 2;
  spec.sharp.tenancy.tenants = 2;
  spec.sharp.tenancy.quota.pool = 16;

  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.metrics = &reg;
  const harness::FairnessReport rep =
      harness::run_fairness(set.streams, spec, 8, rc);

  ASSERT_EQ(rep.tenants.size(), 2u);
  for (const harness::TenantFairness& f : rep.tenants) {
    EXPECT_GT(f.solo_mean_ps, 0.0);
    EXPECT_GE(f.slowdown, 1.0);  // contention can only hurt
  }
  EXPECT_GT(rep.jain, 0.0);
  EXPECT_LE(rep.jain, 1.0 + 1e-9);
  EXPECT_GE(rep.slowdown_ratio, 1.0);

  const telemetry::Snapshot snap = reg.snapshot();
  const telemetry::MetricValue* jain = snap.find("fairness/jain_x1e6");
  ASSERT_NE(jain, nullptr);
  EXPECT_EQ(jain->gauge, std::llround(rep.jain * 1e6));
  EXPECT_NE(snap.find("fairness/tenant0/slowdown_x1e3"), nullptr);
  EXPECT_NE(snap.find("runtime/offered"), nullptr);
}

TEST(Tenancy, TenantTelemetryPathsAreZeroPadded) {
  // 12 tenants: per-tenant paths must carry two-digit indices so snapshot
  // path order equals numeric tenant order.
  std::vector<double> rates(12, 5e5);
  TenantSet set = make_tenants(rates, 20);
  NexusSharpConfig cfg = sharp_cfg(2);
  cfg.tenancy.tenants = 12;
  NexusSharp mgr(cfg);
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = &reg;
  run_tenants(set.streams, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("tenancy/tenant07/tasks"), nullptr);
  EXPECT_NE(snap.find("tenancy/tenant11/tasks"), nullptr);
  EXPECT_EQ(snap.find("tenancy/tenant7/tasks"), nullptr);
}

}  // namespace
}  // namespace nexus
