// Golden digests of the three host-driver entry points. Each case hashes
// everything a run reports — the executed schedule entry by entry and every
// field of the result struct (per-tenant raw latency vectors and NACK-hold
// counts included) — with 64-bit FNV-1a, and pins the digest. Any change to
// submission order, dispatch, notification or same-tick event order moves a
// digest, so a driver refactor that keeps them all is bit-identical.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/multi_app.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/tenancy.hpp"
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
  EXPECT_EQ(trace_digest(gauss, m, rc), 0x5ba5439b4ad53577ULL);
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
  EXPECT_EQ(m.stats().pool_peak, 4u);  // the masters did contend for slots
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
  EXPECT_EQ(tenant_digest(set.streams, m, RuntimeConfig{.workers = 4}),
            0x320ae4575da2a61ULL);
  EXPECT_GT(m.stats().nacks, 0u);
}

TEST(Golden, RunTenantsPoolFullStall) {
  const Tenants set = make_tenants({6e6, 3e6}, 200);
  NexusSharpConfig cfg = sharp(2);
  cfg.pool_capacity = 6;
  cfg.tenancy.tenants = 2;
  NexusSharp m(cfg);
  EXPECT_EQ(tenant_digest(set.streams, m, RuntimeConfig{.workers = 4}),
            0xd6b9af7eb88ee190ULL);
  EXPECT_EQ(m.stats().nacks, 0u);
  EXPECT_EQ(m.stats().pool_peak, 6u);  // a full pool stalls the whole port
}

}  // namespace
}  // namespace nexus
