// Host-side self-profiler (telemetry::Profiler): the exclusion-ledger
// attribution invariants, the deterministic frozen tree shape, the
// zero-overhead-when-detached contract (attached and detached runs produce
// bit-identical schedules and BENCH records — the trace_test pattern), and
// the exporter round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/telemetry/profile_export.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

using telemetry::ProfileData;
using telemetry::ProfileNode;
using telemetry::Profiler;
using telemetry::ProfScope;

/// Burn a little measurable wall time (freeze() calibrates against
/// steady_clock, so any busy loop shows up as nanoseconds).
void spin() {
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 20000; ++i) sink = sink + 1;
}

// ---------- node registration and frozen shape ----------

TEST(Profiler, NodesAreFindOrCreateAndStable) {
  Profiler p;
  const auto a = p.node(Profiler::kRoot, "queue");
  const auto b = p.node(a, "pop");
  EXPECT_EQ(p.node(Profiler::kRoot, "queue"), a);
  EXPECT_EQ(p.node(a, "pop"), b);
  EXPECT_NE(p.node(a, "push"), b);
  EXPECT_EQ(p.num_nodes(), 4u);  // root + queue + pop + push
}

TEST(Profiler, FreezeSortsChildrenAndKeepsParentsFirst) {
  Profiler p;
  // Register in reverse-alphabetical order; the frozen shape must not
  // depend on registration order.
  const auto z = p.node(Profiler::kRoot, "zeta");
  p.node(Profiler::kRoot, "alpha");
  p.node(z, "nested");
  const ProfileData d = p.freeze();
  ASSERT_EQ(d.nodes.size(), 4u);
  EXPECT_EQ(d.nodes[0].name, "all");
  const ProfileNode& root = d.nodes[0];
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(d.nodes[root.children[0]].name, "alpha");
  EXPECT_EQ(d.nodes[root.children[1]].name, "zeta");
  for (std::uint32_t i = 1; i < d.nodes.size(); ++i)
    EXPECT_LT(d.nodes[i].parent, i) << "parent must precede child";
}

TEST(Profiler, PathOfAndFindRoundTrip) {
  Profiler p;
  const auto q = p.node(Profiler::kRoot, "queue");
  p.node(q, "pop");
  const ProfileData d = p.freeze();
  const ProfileNode* pop = d.find("queue;pop");
  ASSERT_NE(pop, nullptr);
  EXPECT_EQ(pop->name, "pop");
  bool found = false;
  for (std::uint32_t i = 0; i < d.nodes.size(); ++i) {
    if (&d.nodes[i] == pop) {
      EXPECT_EQ(d.path_of(i), "all;queue;pop");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(d.find("queue;nope"), nullptr);
  EXPECT_EQ(d.find("nope"), nullptr);
}

// ---------- exclusion-ledger attribution ----------

TEST(Profiler, NestedScopesAttributeExclusively) {
  Profiler p;
  const auto outer = p.node(Profiler::kRoot, "outer");
  const auto inner = p.node(outer, "inner");
  {
    ProfScope so(&p, outer);
    spin();
    {
      ProfScope si(&p, inner);
      spin();
    }
    spin();
  }
  const ProfileData d = p.freeze();
  const ProfileNode* o = d.find("outer");
  const ProfileNode* i = d.find("outer;inner");
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->count, 1u);
  EXPECT_EQ(i->count, 1u);
  EXPECT_GT(o->self_ns, 0u);
  EXPECT_GT(i->self_ns, 0u);
  // Exclusive attribution: the outer total is self + the nested total, and
  // the root rollup reconciles exactly (no nanosecond lands in two nodes).
  EXPECT_EQ(o->total_ns, o->self_ns + i->total_ns);
  EXPECT_EQ(d.nodes[0].total_ns, o->total_ns);
}

TEST(Profiler, SiblingScopesSumIntoTheParentLedger) {
  Profiler p;
  const auto outer = p.node(Profiler::kRoot, "outer");
  const auto a = p.node(outer, "a");
  const auto b = p.node(outer, "b");
  {
    ProfScope so(&p, outer);
    for (int k = 0; k < 3; ++k) {
      ProfScope sa(&p, a);
      spin();
    }
    {
      ProfScope sb(&p, b);
      spin();
    }
  }
  const ProfileData d = p.freeze();
  const ProfileNode* o = d.find("outer");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(d.find("outer;a")->count, 3u);
  EXPECT_EQ(d.find("outer;b")->count, 1u);
  EXPECT_EQ(o->total_ns,
            o->self_ns + d.find("outer;a")->total_ns +
                d.find("outer;b")->total_ns);
}

TEST(Profiler, DynamicNestingOutsideTheStaticTreeStaysExclusive) {
  // A scope on a node that is NOT a static ancestor of the inner scope's
  // node: the ledger must still net the inner interval out of the outer
  // one, so the two siblings never double-count the same wall time.
  Profiler p;
  const auto a = p.node(Profiler::kRoot, "a");
  const auto b = p.node(Profiler::kRoot, "b");
  {
    ProfScope sa(&p, a);
    spin();
    {
      ProfScope sb(&p, b);  // dynamically nested, statically a sibling
      spin();
    }
  }
  const ProfileData d = p.freeze();
  const std::uint64_t root_total = d.nodes[0].total_ns;
  EXPECT_EQ(root_total, d.find("a")->total_ns + d.find("b")->total_ns);
}

TEST(Profiler, CountAndStatNodes) {
  Profiler p;
  const auto n = p.node(Profiler::kRoot, "stats");
  p.add_count(n, 5);
  p.add_count(n);
  p.stat_max(n, 7);
  p.stat_max(n, 3);  // lower: must not overwrite
  p.set_count(n, 42);
  const ProfileData d = p.freeze();
  EXPECT_EQ(d.find("stats")->count, 42u);
  EXPECT_EQ(d.find("stats")->max, 7u);
  EXPECT_EQ(d.find("stats")->self_ns, 0u);
}

// ---------- null-safety (the detached contract, scope level) ----------

TEST(Profiler, NullProfilerScopesAreNoOps) {
  // Must not crash, must not need a profiler instance at all.
  for (int i = 0; i < 3; ++i) {
    ProfScope s(nullptr, 17);
    spin();
  }
  SUCCEED();
}

// ---------- the detached contract, full-stack level ----------

struct ObservedRun {
  RunResult result;
  std::vector<ScheduleEntry> schedule;
  std::string record;
};

ObservedRun run_gaussian(Profiler* prof) {
  const Trace tr = workloads::make_gaussian({.n = 60});
  telemetry::MetricRegistry reg;
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 2;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = &reg;
  rc.profiler = prof;
  ObservedRun out;
  rc.schedule_out = &out.schedule;
  out.result = run_trace(tr, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();
  out.record = harness::metrics_report_json("profiler_test", "gaussian-60",
                                            "nexus#-2TG", 8,
                                            out.result.makespan, 1.0, &snap);
  return out;
}

TEST(Profiler, AttachedRunIsBitIdenticalToDetached) {
  // The profiler observes the simulator; it must not perturb it. Same
  // contract (and test shape) as TraceRecorder's: schedules and BENCH
  // records bit-identical with and without the observer attached.
  const ObservedRun detached = run_gaussian(nullptr);
  Profiler prof;
  const ObservedRun attached = run_gaussian(&prof);
  EXPECT_EQ(detached.result.makespan, attached.result.makespan);
  EXPECT_EQ(detached.result.events, attached.result.events);
  EXPECT_EQ(detached.record, attached.record);
  ASSERT_EQ(detached.schedule.size(), attached.schedule.size());
  for (std::size_t i = 0; i < detached.schedule.size(); ++i) {
    EXPECT_EQ(detached.schedule[i].task, attached.schedule[i].task) << i;
    EXPECT_EQ(detached.schedule[i].worker, attached.schedule[i].worker) << i;
    EXPECT_EQ(detached.schedule[i].start, attached.schedule[i].start) << i;
    EXPECT_EQ(detached.schedule[i].end, attached.schedule[i].end) << i;
  }
  // And the attached run actually profiled something.
  const ProfileData d = prof.freeze();
  EXPECT_GT(d.nodes[0].total_ns, 0u);
}

TEST(Profiler, FullStackRunAttributesQueueOpsAndComponentTypes) {
  Profiler prof;
  const ObservedRun run = run_gaussian(&prof);
  const ProfileData d = prof.freeze();
  // The DES hot loop: every processed event was popped and handled, every
  // scheduled event pushed. Counts are exact, not sampled.
  const ProfileNode* pop = d.find("queue;pop");
  const ProfileNode* push = d.find("queue;push");
  const ProfileNode* handle = d.find("handle");
  ASSERT_NE(pop, nullptr);
  ASSERT_NE(push, nullptr);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(pop->count, run.result.events);
  EXPECT_GE(push->count, run.result.events);  // pushes >= pops (drained last)
  std::uint64_t handled = 0;
  for (const std::uint32_t c : handle->children) handled += d.nodes[c].count;
  EXPECT_EQ(handled, run.result.events);
  // Component *types* appear (replicated workers fold into one node).
  EXPECT_NE(d.find("handle;tg"), nullptr);
  EXPECT_NE(d.find("handle;driver"), nullptr);
  // The root reconciliation invariant the validator checks.
  std::uint64_t child_sum = 0;
  for (const std::uint32_t c : d.nodes[0].children)
    child_sum += d.nodes[c].total_ns;
  EXPECT_EQ(d.nodes[0].total_ns, d.nodes[0].self_ns + child_sum);
}

/// Every node's total is its self time plus its children's totals.
void expect_reconciles(const ProfileData& d) {
  for (const ProfileNode& n : d.nodes) {
    std::uint64_t child_sum = 0;
    for (const std::uint32_t c : n.children) child_sum += d.nodes[c].total_ns;
    EXPECT_EQ(n.total_ns, n.self_ns + child_sum) << n.name;
  }
}

TEST(Profiler, TenantRunReconcilesAndIsBitIdenticalToDetached) {
  // run_tenants goes through the same driver, so it profiles too — and
  // attaching the profiler must not move one latency sample.
  std::vector<workloads::ArrivalSchedule> scheds;
  std::vector<Trace> traces;
  for (std::uint64_t t = 0; t < 2; ++t) {
    workloads::ArrivalConfig c;
    c.tasks = 150;
    c.clients = 1;
    c.rate_hz = t == 0 ? 5e6 : 1e6;
    c.seed = 0xAB + t;
    scheds.push_back(workloads::generate_arrivals(c));
  }
  for (const workloads::ArrivalSchedule& s : scheds)
    traces.push_back(workloads::make_serving_trace(s));
  std::vector<TenantStream> streams;
  for (std::size_t t = 0; t < scheds.size(); ++t)
    streams.push_back({&traces[t], scheds[t].submission.release});
  auto run = [&](Profiler* prof, std::vector<ScheduleEntry>* sched) {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 2;
    cfg.freq_mhz = 100.0;
    cfg.tenancy.tenants = 2;
    cfg.tenancy.quota.pool = 6;
    NexusSharp mgr(cfg);
    RuntimeConfig rc;
    rc.workers = 4;
    rc.profiler = prof;
    rc.schedule_out = sched;
    return run_tenants(streams, mgr, rc);
  };
  std::vector<ScheduleEntry> s_detached;
  std::vector<ScheduleEntry> s_attached;
  const TenantRunResult detached = run(nullptr, &s_detached);
  Profiler prof;
  const TenantRunResult attached = run(&prof, &s_attached);
  EXPECT_EQ(detached.makespan, attached.makespan);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    EXPECT_EQ(detached.tenants[t].raw, attached.tenants[t].raw) << t;
    EXPECT_EQ(detached.tenants[t].nack_holds, attached.tenants[t].nack_holds) << t;
  }
  ASSERT_EQ(s_detached.size(), s_attached.size());
  for (std::size_t i = 0; i < s_detached.size(); ++i) {
    EXPECT_EQ(s_detached[i].task, s_attached[i].task) << i;
    EXPECT_EQ(s_detached[i].worker, s_attached[i].worker) << i;
    EXPECT_EQ(s_detached[i].start, s_attached[i].start) << i;
  }
  const ProfileData d = prof.freeze();
  EXPECT_NE(d.find("handle;driver;dispatch"), nullptr);
  ASSERT_NE(d.find("handle;driver;notify"), nullptr);
  EXPECT_EQ(d.find("handle;driver;notify")->count, s_attached.size());
  EXPECT_NE(d.find("handle;io"), nullptr);
  EXPECT_GT(d.nodes[0].total_ns, 0u);
  expect_reconciles(d);
}

// ---------- exporters ----------

ProfileData tiny_profile() {
  Profiler p;
  const auto q = p.node(Profiler::kRoot, "queue");
  const auto pop = p.node(q, "pop");
  const auto push = p.node(q, "push");
  for (int i = 0; i < 4; ++i) {
    ProfScope s(&p, pop);
    spin();
  }
  {
    ProfScope s(&p, push);
    spin();
  }
  return p.freeze();
}

TEST(ProfileExport, JsonCarriesSchemaAndReconcilingTree) {
  const ProfileData d = tiny_profile();
  const std::string json = telemetry::profile_json(d, 12345);
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":4"), std::string::npos);
}

TEST(ProfileExport, CollapsedStacksUseSemicolonPathsAndSelfTime) {
  const ProfileData d = tiny_profile();
  const std::string collapsed = telemetry::profile_collapsed(d);
  // One line per nonzero-self node: "all;queue;pop <self_ns>".
  EXPECT_NE(collapsed.find("all;queue;pop "), std::string::npos);
  EXPECT_NE(collapsed.find("all;queue;push "), std::string::npos);
  // Zero-self structural nodes are omitted.
  EXPECT_EQ(collapsed.find("all;queue\n"), std::string::npos);
  EXPECT_EQ(collapsed.find("all;queue "), std::string::npos);
}

TEST(ProfileExport, TopRanksBySelfTimeDescending) {
  const ProfileData d = tiny_profile();
  const auto top = telemetry::profile_top(d, 10);
  ASSERT_GE(top.size(), 2u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].self_ns, top[i].self_ns);
  double pct_sum = 0.0;
  for (const auto& row : top) pct_sum += row.pct;
  EXPECT_LE(pct_sum, 100.0 + 1e-6);
  // The table renders every ranked row.
  const std::string table = telemetry::profile_top_table(d, 10);
  for (const auto& row : top)
    EXPECT_NE(table.find(row.path), std::string::npos) << row.path;
}

}  // namespace
}  // namespace nexus
