// Golden digests of the three host-driver entry points. Each case hashes
// everything a run reports — the executed schedule entry by entry and every
// field of the result struct (per-tenant raw latency vectors and NACK-hold
// counts included) — with 64-bit FNV-1a, and pins the digest. Any change to
// submission order, dispatch, notification or same-tick event order moves a
// digest, so a driver refactor that keeps them all is bit-identical.
//
// The GoldenSurface cases pin the observation surface the same way: with a
// metric registry, a trace recorder and a profiler all attached, they hash
// the full snapshot JSON, the frozen trace and the sorted set of profile
// node paths (names only; the times are host wall clock). A change to how
// instrumentation is attached that keeps them is invisible to every report.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/multi_app.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  void add(const std::vector<ScheduleEntry>& sched) {
    add(static_cast<std::uint64_t>(sched.size()));
    for (const ScheduleEntry& e : sched) {
      add(static_cast<std::uint64_t>(e.task));
      add(static_cast<std::uint64_t>(e.worker));
      add(e.start);
      add(e.end);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

NexusSharpConfig sharp(std::uint32_t tgs) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = tgs;
  cfg.freq_mhz = 100.0;
  return cfg;
}

std::uint64_t trace_digest(const Trace& tr, TaskManagerModel& mgr, RuntimeConfig rc) {
  std::vector<ScheduleEntry> sched;
  rc.schedule_out = &sched;
  const RunResult r = run_trace(tr, mgr, rc);
  Fnv1a h;
  h.add(sched);
  h.add(r.makespan);
  h.add(r.total_work);
  h.add(r.tasks);
  h.add(r.events);
  h.add(r.utilization);
  h.add(r.manager);
  return h.value();
}

std::uint64_t multi_digest(const std::vector<const Trace*>& traces,
                           TaskManagerModel& mgr, RuntimeConfig rc) {
  std::vector<ScheduleEntry> sched;
  rc.schedule_out = &sched;
  const MultiAppResult r = run_multi_app(traces, mgr, rc);
  Fnv1a h;
  h.add(sched);
  h.add(r.makespan);
  for (const Tick t : r.app_completion) h.add(t);
  h.add(r.total_tasks);
  h.add(r.utilization);
  return h.value();
}

std::uint64_t tenant_digest(const std::vector<TenantStream>& streams,
                            TaskManagerModel& mgr, RuntimeConfig rc) {
  std::vector<ScheduleEntry> sched;
  rc.schedule_out = &sched;
  const TenantRunResult r = run_tenants(streams, mgr, rc);
  Fnv1a h;
  h.add(sched);
  h.add(r.makespan);
  h.add(r.total_tasks);
  for (const TenantLatency& t : r.tenants) {
    h.add(t.tasks);
    h.add(t.mean_ps);
    h.add(t.p99_ps);
    h.add(t.max_ps);
    h.add(t.nack_holds);
    h.add(static_cast<std::uint64_t>(t.raw.size()));
    for (const Tick v : t.raw) h.add(v);
  }
  return h.value();
}

/// Owns the arrival schedules and traces a run_tenants call references.
struct Tenants {
  std::vector<workloads::ArrivalSchedule> scheds;
  std::vector<Trace> traces;
  std::vector<TenantStream> streams;
};

Tenants make_tenants(const std::vector<double>& rates_hz, std::uint64_t tasks) {
  Tenants set;
  set.scheds.reserve(rates_hz.size());
  set.traces.reserve(rates_hz.size());
  for (std::size_t t = 0; t < rates_hz.size(); ++t) {
    workloads::ArrivalConfig c;
    c.rate_hz = rates_hz[t];
    c.tasks = tasks;
    c.clients = 1;
    c.seed = 0x601D + t;
    c.chain_fraction = 0.0;
    c.process = t == 0 ? workloads::ArrivalProcess::kBursty
                       : workloads::ArrivalProcess::kPoisson;
    set.scheds.push_back(workloads::generate_arrivals(c));
    set.traces.push_back(workloads::make_serving_trace(set.scheds.back()));
  }
  for (std::size_t t = 0; t < rates_hz.size(); ++t)
    set.streams.push_back({&set.traces[t], set.scheds[t].submission.release});
  return set;
}

/// A chain over five addresses with taskwait_on and taskwait pragmas
/// interleaved, so per-stream barriers interact with pool contention.
Trace chain_with_waits() {
  Trace tr("waits");
  for (int i = 0; i < 24; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x40 * static_cast<Addr>(i % 5), Dir::kInOut});
    tr.submit(0, us(2 + i % 3), p);
    if (i % 6 == 5) tr.taskwait_on(0x1000);
    if (i % 11 == 10) tr.taskwait();
  }
  tr.taskwait();
  return tr;
}

TEST(Golden, RunTraceClosedLoop) {
  const Trace gauss = workloads::make_gaussian({.n = 60});
  const Trace h264 = workloads::make_h264dec(workloads::h264_config(8));
  const RuntimeConfig rc{.workers = 8};
  {
    NexusSharp m(sharp(4));
    EXPECT_EQ(trace_digest(gauss, m, rc), 0x21cf0bb2e0012699ULL) << "nexus# gaussian";
  }
  {
    NexusSharp m(sharp(6));
    EXPECT_EQ(trace_digest(h264, m, rc), 0x32aab63da7687584ULL) << "nexus# h264dec";
  }
  {
    NexusPP m;
    EXPECT_EQ(trace_digest(gauss, m, rc), 0x6fb1798bc19c2bd9ULL) << "nexus++ gaussian";
  }
  {
    NexusPP m;
    EXPECT_EQ(trace_digest(h264, m, rc), 0x35ec2781085a72eeULL) << "nexus++ h264dec";
  }
  {
    NanosModel m;
    EXPECT_EQ(trace_digest(gauss, m, rc), 0x6c1dc9e434317ffcULL) << "nanos gaussian";
  }
  {
    NanosModel m;
    EXPECT_EQ(trace_digest(h264, m, rc), 0x3b3a660e7758e6c0ULL) << "nanos h264dec";
  }
}

TEST(Golden, RunTraceMeshHostNoc) {
  const Trace gauss = workloads::make_gaussian({.n = 60});
  RuntimeConfig rc{.workers = 8};
  rc.noc.kind = noc::TopologyKind::kMesh;
  NexusSharp m(sharp(4));
  // Re-pinned when the NoC moved to route reservation at send: a routed
  // delivery is now scheduled at send, not from a same-tick hop event, so
  // same-tick events break ties in a new order (makespan 221267000 ->
  // 221234000 ps; no link stalls in either model).
  EXPECT_EQ(trace_digest(gauss, m, rc), 0xe0bde11a38378847ULL);
}

TEST(Golden, RunTraceOpenLoopFourClients) {
  workloads::ArrivalConfig acfg;
  acfg.tasks = 400;
  acfg.clients = 4;
  acfg.kernel = "h264dec-8x8-10f";
  acfg.rate_hz = 4e6;
  const workloads::ArrivalSchedule sched = workloads::generate_arrivals(acfg);
  const Trace tr = workloads::make_serving_trace(sched);
  RuntimeConfig rc{.workers = 8};
  rc.open_loop = &sched.submission;
  NexusSharp m(sharp(4));
  EXPECT_EQ(trace_digest(tr, m, rc), 0x30d28fe2fab35c2ULL);
}

TEST(Golden, RunMultiAppWaitsAndPoolContention) {
  const Trace h264 = workloads::make_h264dec(workloads::h264_config(8));
  const Trace waits = chain_with_waits();
  const Trace gauss = workloads::make_gaussian({.n = 30});
  NexusSharpConfig cfg = sharp(2);
  cfg.pool_capacity = 4;
  NexusSharp m(cfg);
  EXPECT_EQ(multi_digest({&waits, &h264, &gauss}, m, RuntimeConfig{.workers = 4}),
            0x2d1e3673d15be295ULL);
  EXPECT_EQ(m.pool().peak(), 4u);  // the masters did contend for slots
}

TEST(Golden, RunTenantsQuotaNacks) {
  const Tenants set = make_tenants({5e6, 2e5, 2e5}, 200);
  NexusSharpConfig cfg = sharp(4);
  cfg.arbiter_clusters = 2;
  cfg.pool_capacity = 48;
  cfg.tenancy.tenants = 3;
  cfg.tenancy.quota.pool = 6;
  cfg.tenancy.weighted = true;
  cfg.tenancy.weights = {4, 1, 1};
  NexusSharp m(cfg);
  telemetry::MetricRegistry reg;
  EXPECT_EQ(tenant_digest(set.streams, m,
                          RuntimeConfig{.workers = 4, .metrics = &reg}),
            0x320ae4575da2a61ULL);
  EXPECT_GT(reg.snapshot().counter_at("nexus#/admission/nacks"), 0u);
}

TEST(Golden, RunTenantsPoolFullStall) {
  const Tenants set = make_tenants({6e6, 3e6}, 200);
  NexusSharpConfig cfg = sharp(2);
  cfg.pool_capacity = 6;
  cfg.tenancy.tenants = 2;
  NexusSharp m(cfg);
  telemetry::MetricRegistry reg;
  EXPECT_EQ(tenant_digest(set.streams, m,
                          RuntimeConfig{.workers = 4, .metrics = &reg}),
            0xd6b9af7eb88ee190ULL);
  EXPECT_EQ(reg.snapshot().counter_at("nexus#/admission/nacks"), 0u);
  EXPECT_EQ(m.pool().peak(), 6u);  // a full pool stalls the whole port
}

/// `n` tenants with `tasks` tiny independent tasks each: tenant 0 bursty,
/// the rest Poisson, durations 1-3 us.
Tenants tiny_tenants(std::size_t n, std::uint64_t tasks) {
  Tenants set;
  set.scheds.reserve(n);
  set.traces.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    workloads::ArrivalConfig c;
    c.rate_hz = t == 0 ? 4e6 : 2e5;
    c.tasks = tasks;
    c.clients = 1;
    c.seed = 0x3A9 + t;
    c.process = t == 0 ? workloads::ArrivalProcess::kBursty
                       : workloads::ArrivalProcess::kPoisson;
    set.scheds.push_back(workloads::generate_arrivals(c));
    Trace& tr = set.traces.emplace_back("tiny");
    for (std::uint64_t i = 0; i < tasks; ++i)
      tr.submit(0, us(static_cast<double>(1 + (t + i) % 3)),
                {{0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut}});
  }
  for (std::size_t t = 0; t < n; ++t)
    set.streams.push_back({&set.traces[t], set.scheds[t].submission.release});
  return set;
}

TEST(Golden, RunTenantsWrrAcrossWordBoundaries) {
  // 130 tenants: the root's per-tenant ready queues span three 64-bit
  // words, so the WRR search crosses word boundaries and wraps from the
  // last partial word back to tenant 0. A slow root grant lets ready tasks
  // of many tenants queue at the root at once, so the WRR order decides
  // who goes first. Unequal weights vary the burst a tenant keeps, and a
  // one-slot pool quota NACKs each arrival whose tenant still has a task
  // in the pool.
  constexpr std::uint32_t kTenants = 130;
  const Tenants set = tiny_tenants(kTenants, 6);
  NexusSharpConfig cfg = sharp(4);
  cfg.arbiter_clusters = 2;
  cfg.root_grant_cycles = 60;
  cfg.pool_capacity = 64;
  cfg.tenancy.tenants = kTenants;
  cfg.tenancy.quota.pool = 1;
  for (std::uint32_t t = 0; t < kTenants; ++t)
    cfg.tenancy.weights.push_back(1 + t % 4);
  NexusSharp m(cfg);
  telemetry::MetricRegistry reg;
  EXPECT_EQ(tenant_digest(set.streams, m,
                          RuntimeConfig{.workers = 4, .metrics = &reg}),
            0x40d432dcf47c561aULL);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_at("nexus#/admission/nacks"), 0u);
  for (const std::uint32_t t : {0u, 63u, 64u, 127u, 128u, 129u})
    EXPECT_EQ(snap.counter_at(telemetry::path_join(
                  telemetry::indexed_path("nexus#/root/tenant", t, kTenants),
                  "grants")),
              6u)
        << "tenant " << t;
}

TEST(Golden, RunTenantsWrrWrapsBackToTheOnlyBusyTenant) {
  // Only tenant 1 has work while its burst runs, and its weight is 1, so
  // after each grant its credits are exhausted: the WRR search must come
  // all the way round (past 2, wrapping past 0) back to tenant 1 itself.
  // Tenants 0 and 2 each release one task long after the burst.
  constexpr Tick kFar = ms(1);
  constexpr int kBurst = 12;
  Trace burst("burst");
  for (int i = 0; i < kBurst; ++i)
    burst.submit(0, us(1), {{0x1000 + 0x40 * static_cast<Addr>(i), Dir::kOut}});
  Trace late("late");
  late.submit(0, us(1), {{0x1000, Dir::kOut}});
  const std::vector<TenantStream> streams = {
      {&late, {kFar}}, {&burst, std::vector<Tick>(kBurst, 0)}, {&late, {kFar}}};
  NexusSharpConfig cfg = sharp(4);
  cfg.arbiter_clusters = 2;
  cfg.tenancy.tenants = 3;
  NexusSharp m(cfg);
  telemetry::MetricRegistry reg;
  EXPECT_EQ(tenant_digest(streams, m, RuntimeConfig{.workers = 8, .metrics = &reg}),
            0xc4a72023da468321ULL);
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_at("nexus#/root/tenant1/grants"),
            static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(snap.counter_at("nexus#/root/tenant0/grants"), 1u);
  EXPECT_EQ(snap.counter_at("nexus#/root/tenant2/grants"), 1u);
}

// ---------------------------------------------------------------------------
// The observation surface: metrics, trace and profile shape.
// ---------------------------------------------------------------------------

/// The three observers of one run and the digests of what they collected.
struct Surface {
  telemetry::MetricRegistry reg;
  telemetry::TraceRecorder trace;
  telemetry::Profiler prof;

  /// `rc` with all three observers attached.
  [[nodiscard]] RuntimeConfig observed(RuntimeConfig rc) {
    rc.metrics = &reg;
    rc.trace = &trace;
    rc.profiler = &prof;
    return rc;
  }

  [[nodiscard]] std::uint64_t metrics_digest() const {
    Fnv1a h;
    h.add(telemetry::snapshot_json(reg.snapshot()));
    return h.value();
  }

  [[nodiscard]] std::uint64_t trace_digest() const {
    const telemetry::TraceData d = trace.freeze();
    Fnv1a h;
    h.add(static_cast<std::uint64_t>(d.tasks.size()));
    for (const telemetry::TaskSpan& t : d.tasks) {
      h.add(t.task);
      h.add(static_cast<std::int64_t>(t.worker));
      for (const telemetry::TraceTick v :
           {t.submit, t.accepted, t.resolved, t.ready, t.dispatch, t.exec_start,
            t.exec_end, t.freed})
        h.add(v);
    }
    h.add(static_cast<std::uint64_t>(d.messages.size()));
    for (const telemetry::NocMessage& m : d.messages) {
      h.add(d.str(m.net));
      h.add(d.str(m.op));
      h.add(static_cast<std::uint64_t>(m.src));
      h.add(static_cast<std::uint64_t>(m.dst));
      h.add(static_cast<std::uint64_t>(m.flits));
      h.add(m.depart);
      h.add(m.arrive);
    }
    h.add(static_cast<std::uint64_t>(d.link_spans.size()));
    for (const telemetry::LinkSpan& l : d.link_spans) {
      h.add(static_cast<std::uint64_t>(l.msg));
      h.add(d.str(l.link));
      h.add(l.start);
      h.add(l.dur);
    }
    h.add(static_cast<std::uint64_t>(d.deps.size()));
    for (const telemetry::DepEdge& e : d.deps) {
      h.add(e.producer);
      h.add(e.consumer);
      h.add(e.t);
    }
    h.add(static_cast<std::uint64_t>(d.unit_spans.size()));
    for (const telemetry::UnitSpan& u : d.unit_spans) {
      h.add(d.str(u.unit));
      h.add(d.str(u.what));
      h.add(u.task);
      h.add(u.start);
      h.add(u.dur);
    }
    h.add(static_cast<std::uint64_t>(d.counters.size()));
    for (const telemetry::CounterSample& c : d.counters) {
      h.add(d.str(c.track));
      h.add(c.t);
      h.add(c.v);
    }
    h.add(d.makespan);
    return h.value();
  }

  [[nodiscard]] std::uint64_t profile_digest() const {
    const telemetry::ProfileData d = prof.freeze();
    std::vector<std::string> paths;
    for (std::uint32_t i = 0; i < d.nodes.size(); ++i) paths.push_back(d.path_of(i));
    std::sort(paths.begin(), paths.end());
    Fnv1a h;
    for (const std::string& p : paths) h.add(p);
    return h.value();
  }
};

TEST(GoldenSurface, NexusSharpClusteredTenantsOnMeshes) {
  const Tenants set = make_tenants({4e6, 1e6, 1e6, 1e6}, 80);
  NexusSharpConfig cfg = sharp(4);
  cfg.arbiter_clusters = 2;
  cfg.pool_capacity = 32;
  cfg.tenancy.tenants = 4;
  cfg.tenancy.quota.pool = 8;
  cfg.tenancy.weights = {2, 1, 1, 1};
  cfg.noc.kind = noc::TopologyKind::kMesh;
  NexusSharp m(cfg);
  RuntimeConfig rc{.workers = 4};
  rc.noc.kind = noc::TopologyKind::kMesh;
  Surface s;
  run_tenants(set.streams, m, s.observed(rc));
  EXPECT_GT(s.reg.snapshot().counter_at("nexus#/admission/nacks"), 0u);
  // Metrics and trace re-pinned when the NoC moved to route reservation at
  // send: the NoC components process no events (sim/c<i>_noc/events), link
  // spans and arrivals are recorded at send, and deliveries scheduled at
  // send break same-tick ties in a new order. Metrics re-pinned again when
  // the NoC's delivered/delivered_flits counters (always equal to
  // messages/flits) were deleted.
  EXPECT_EQ(s.metrics_digest(), 0xebc149737d029a16ULL) << "metrics";
  EXPECT_EQ(s.trace_digest(), 0x8c80f1547efe61bcULL) << "trace";
  // Profile re-pinned (as in the three cases below) when each
  // handle;<type> node gained one child per event op.
  EXPECT_EQ(s.profile_digest(), 0x9d4b4c6c094d6c2dULL) << "profile";
}

TEST(GoldenSurface, NexusPPOnRing) {
  const Trace gauss = workloads::make_gaussian({.n = 30});
  NexusPPConfig cfg;
  cfg.noc.kind = noc::TopologyKind::kRing;
  NexusPP m(cfg);
  Surface s;
  run_trace(gauss, m, s.observed(RuntimeConfig{.workers = 4}));
  // Re-pinned for route reservation at send, as above (makespan 82122000
  // -> 82142000 ps; link stall and blocked counts unchanged), and for the
  // NoC delivered-counter deletion, as above.
  EXPECT_EQ(s.metrics_digest(), 0xd4c328f264995285ULL) << "metrics";
  EXPECT_EQ(s.trace_digest(), 0xe7999b661fd8c95aULL) << "trace";
  EXPECT_EQ(s.profile_digest(), 0x1b525e7665a1bb68ULL) << "profile";
}

TEST(GoldenSurface, NanosModel) {
  const Trace gauss = workloads::make_gaussian({.n = 30});
  NanosModel m;
  Surface s;
  run_trace(gauss, m, s.observed(RuntimeConfig{.workers = 4}));
  EXPECT_EQ(s.metrics_digest(), 0x8c6165ca437f1af6ULL) << "metrics";
  EXPECT_EQ(s.trace_digest(), 0x31a1a9ed18138b70ULL) << "trace";
  EXPECT_EQ(s.profile_digest(), 0xe39d9918dd37fbaeULL) << "profile";
}

TEST(GoldenSurface, IdealManager) {
  const Trace gauss = workloads::make_gaussian({.n = 30});
  IdealManager m;
  Surface s;
  run_trace(gauss, m, s.observed(RuntimeConfig{.workers = 4}));
  EXPECT_EQ(s.metrics_digest(), 0xe053311403b900c6ULL) << "metrics";
  EXPECT_EQ(s.trace_digest(), 0x7836c5c56b1036b4ULL) << "trace";
  EXPECT_EQ(s.profile_digest(), 0x51cab0b5aa1a5ed8ULL) << "profile";
}

}  // namespace
}  // namespace nexus
