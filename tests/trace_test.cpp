// Trace-layer tests: span-chain conservation (every task exactly one
// complete, monotone lifecycle chain whose phase durations telescope to the
// sojourn), cross-checks against the schedule oracle and the exec log, dep
// edges bracketed by producer finish and consumer resolve, NoC flow events
// conserving delivered flits against Network::stats(), the zero-overhead
// contract (attaching a recorder must not change the schedule by one
// event), critical-path attribution tiling [0, makespan] exactly on
// ideal/mesh/torus interconnects, and the Chrome exporter's invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/telemetry/critical_path.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/snapshot.hpp"
#include "nexus/telemetry/trace.hpp"
#include "nexus/telemetry/trace_export.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"
#include "schedule_checker.hpp"

namespace nexus {
namespace {

using telemetry::CriticalPathReport;
using telemetry::DepEdge;
using telemetry::NocMessage;
using telemetry::TaskPhases;
using telemetry::TaskSpan;
using telemetry::TraceData;
using telemetry::TraceRecorder;

Trace small_gaussian() {
  workloads::GaussianConfig gcfg;
  gcfg.n = 40;
  return workloads::make_gaussian(gcfg);
}

NexusSharpConfig sharp_cfg(noc::TopologyKind kind) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  cfg.noc.kind = kind;
  return cfg;
}

struct TracedRun {
  RunResult result;
  TraceData trace;
  std::vector<ScheduleEntry> schedule;
};

TracedRun run_traced(const Trace& tr, TaskManagerModel& mgr,
                     std::uint32_t workers = 8) {
  TracedRun out;
  TraceRecorder rec;
  RuntimeConfig rc;
  rc.workers = workers;
  rc.trace = &rec;
  rc.schedule_out = &out.schedule;
  out.result = run_trace(tr, mgr, rc);
  out.trace = rec.freeze();
  return out;
}

/// The conservation core: one complete span per task, monotone boundaries,
/// phases telescoping to the sojourn, exec intervals matching the executed
/// schedule entry for entry, and dep edges bracketed causally.
void check_conservation(const Trace& tr, const TracedRun& r) {
  ASSERT_EQ(r.trace.tasks.size(), tr.num_tasks());
  ASSERT_EQ(r.schedule.size(), tr.num_tasks());
  EXPECT_EQ(r.trace.makespan, r.result.makespan);

  std::map<std::uint64_t, const ScheduleEntry*> sched;
  for (const ScheduleEntry& e : r.schedule) {
    EXPECT_TRUE(sched.emplace(e.task, &e).second)
        << "task " << e.task << " executed twice";
  }

  for (const TaskSpan& s : r.trace.tasks) {
    ASSERT_TRUE(s.complete()) << "task " << s.task << " has an open span";
    EXPECT_GE(s.worker, 0) << "task " << s.task;
    // Monotone chain.
    EXPECT_LE(s.submit, s.accepted) << "task " << s.task;
    EXPECT_LE(s.accepted, s.resolved) << "task " << s.task;
    EXPECT_LE(s.resolved, s.ready) << "task " << s.task;
    EXPECT_LE(s.ready, s.dispatch) << "task " << s.task;
    EXPECT_LE(s.dispatch, s.exec_start) << "task " << s.task;
    EXPECT_LE(s.exec_start, s.exec_end) << "task " << s.task;
    EXPECT_LE(s.exec_end, r.trace.makespan) << "task " << s.task;
    // Phases telescope to the sojourn exactly.
    const TaskPhases p = telemetry::phases_of(s);
    EXPECT_EQ(p.ingest + p.dep_wait + p.writeback + p.queue_wait + p.dispatch +
                  p.execute,
              s.sojourn())
        << "task " << s.task;
    // The span's exec interval is the schedule's, entry for entry.
    const auto it = sched.find(s.task);
    ASSERT_NE(it, sched.end()) << "task " << s.task << " traced but not run";
    EXPECT_EQ(s.exec_start, it->second->start) << "task " << s.task;
    EXPECT_EQ(s.exec_end, it->second->end) << "task " << s.task;
    EXPECT_EQ(s.worker, static_cast<std::int32_t>(it->second->worker))
        << "task " << s.task;
  }

  // The schedule the spans mirror must itself be legal.
  std::string err;
  EXPECT_TRUE(testing::validate_schedule(tr, r.schedule, &err)) << err;

  // Dep edges: both endpoints traced; the kick happens no earlier than the
  // producer's finish and no later than the consumer's resolve stamp.
  for (const DepEdge& d : r.trace.deps) {
    const TaskSpan* prod = r.trace.find(d.producer);
    const TaskSpan* cons = r.trace.find(d.consumer);
    ASSERT_NE(prod, nullptr) << "edge producer " << d.producer;
    ASSERT_NE(cons, nullptr) << "edge consumer " << d.consumer;
    EXPECT_LE(prod->exec_end, d.t)
        << "kick " << d.producer << "->" << d.consumer << " precedes finish";
    EXPECT_LE(d.t, cons->resolved)
        << "kick " << d.producer << "->" << d.consumer << " after resolve";
  }
}

TEST(TraceConservation, NexusSharpIdeal) {
  const Trace tr = small_gaussian();
  NexusSharp mgr(sharp_cfg(noc::TopologyKind::kIdeal));
  const TracedRun r = run_traced(tr, mgr);
  check_conservation(tr, r);
  // The ideal crossbar still carries every manager message as a traced
  // flight, delivered inline.
  EXPECT_FALSE(r.trace.messages.empty());
  EXPECT_TRUE(r.trace.link_spans.empty());
}

TEST(TraceConservation, NexusSharpMesh) {
  const Trace tr = small_gaussian();
  NexusSharp mgr(sharp_cfg(noc::TopologyKind::kMesh));
  const TracedRun r = run_traced(tr, mgr);
  check_conservation(tr, r);
  // Routed topology: per-hop link spans exist and each stays inside its
  // message's flight window.
  EXPECT_FALSE(r.trace.link_spans.empty());
  for (const telemetry::LinkSpan& l : r.trace.link_spans) {
    ASSERT_LT(l.msg, r.trace.messages.size());
    const NocMessage& m = r.trace.messages[l.msg];
    EXPECT_GE(l.start, m.depart);
    if (m.arrive >= 0) {
      EXPECT_LE(l.start + l.dur, m.arrive);
    }
  }
}

TEST(TraceConservation, NexusPP) {
  const Trace tr = small_gaussian();
  NexusPP mgr;
  const TracedRun r = run_traced(tr, mgr);
  check_conservation(tr, r);
}

TEST(TraceConservation, IdealManager) {
  const Trace tr = small_gaussian();
  IdealManager mgr;
  const TracedRun r = run_traced(tr, mgr);
  check_conservation(tr, r);
}

// ---------------------------------------------------------------------------
// NoC flow events vs the Network's own conservation ledger.
// ---------------------------------------------------------------------------

TEST(TraceNoc, HostMeshMessagesAreNamedWithoutAProfiler) {
  // The host NoC spells its op codes at construction, so a trace-only run
  // names its messages exactly like a traced and profiled one.
  const Trace tr = small_gaussian();
  NexusSharp mgr(sharp_cfg(noc::TopologyKind::kIdeal));
  TraceRecorder rec;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.trace = &rec;
  rc.noc.kind = noc::TopologyKind::kMesh;
  run_trace(tr, mgr, rc);
  const TraceData d = rec.freeze();
  std::map<std::string, std::uint64_t> ops;
  for (const NocMessage& m : d.messages)
    if (d.str(m.net) == "runtime/noc") ++ops[d.str(m.op)];
  const std::uint64_t n = tr.num_tasks();
  EXPECT_EQ(ops, (std::map<std::string, std::uint64_t>{{"dispatch", n},
                                                        {"notify", n}}));
}

TEST(TraceNoc, DeliveredFlitsMatchNetworkStats) {
  const Trace tr = small_gaussian();
  for (const noc::TopologyKind kind :
       {noc::TopologyKind::kIdeal, noc::TopologyKind::kMesh,
        noc::TopologyKind::kTorus}) {
    NexusSharp mgr(sharp_cfg(kind));
    const TracedRun r = run_traced(tr, mgr);
    const noc::Network::Stats s = mgr.network().stats();
    EXPECT_EQ(r.trace.delivered_flits("nexus#/noc"), s.delivered_flits)
        << noc::to_string(kind);
    // Every traced message was sent; every delivered one has an arrival no
    // earlier than its departure.
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    for (const NocMessage& m : r.trace.messages) {
      if (r.trace.str(m.net) != "nexus#/noc") continue;
      ++sent;
      if (m.arrive >= 0) {
        ++delivered;
        EXPECT_GE(m.arrive, m.depart);
      }
    }
    EXPECT_EQ(sent, s.messages) << noc::to_string(kind);
    EXPECT_EQ(delivered, s.delivered) << noc::to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// Zero-overhead contract: attaching a recorder must not change one event.
// ---------------------------------------------------------------------------

TEST(TraceZeroOverhead, ScheduleBitIdenticalWithAndWithoutRecorder) {
  const Trace tr = small_gaussian();
  for (const noc::TopologyKind kind :
       {noc::TopologyKind::kIdeal, noc::TopologyKind::kMesh}) {
    auto run_one = [&](TraceRecorder* rec, std::vector<ScheduleEntry>* sched) {
      NexusSharp mgr(sharp_cfg(kind));
      RuntimeConfig rc;
      rc.workers = 8;
      rc.trace = rec;
      rc.schedule_out = sched;
      return run_trace(tr, mgr, rc);
    };
    TraceRecorder rec;
    std::vector<ScheduleEntry> with;
    std::vector<ScheduleEntry> without;
    const RunResult a = run_one(&rec, &with);
    const RunResult b = run_one(nullptr, &without);
    EXPECT_EQ(a.makespan, b.makespan) << noc::to_string(kind);
    EXPECT_EQ(a.events, b.events) << noc::to_string(kind);
    ASSERT_EQ(with.size(), without.size()) << noc::to_string(kind);
    for (std::size_t i = 0; i < with.size(); ++i) {
      EXPECT_EQ(with[i].task, without[i].task) << "entry " << i;
      EXPECT_EQ(with[i].worker, without[i].worker) << "entry " << i;
      EXPECT_EQ(with[i].start, without[i].start) << "entry " << i;
      EXPECT_EQ(with[i].end, without[i].end) << "entry " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Critical-path attribution.
// ---------------------------------------------------------------------------

void check_attribution(const TraceData& td) {
  const CriticalPathReport cp = telemetry::critical_path(td);
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.makespan, td.makespan);
  // Contiguous tiling of [0, makespan]: each segment starts where the
  // previous ended, so the durations sum to the makespan by construction.
  telemetry::TraceTick at = 0;
  for (const telemetry::PathSegment& s : cp.segments) {
    EXPECT_EQ(s.from, at);
    EXPECT_GE(s.to, s.from);
    at = s.to;
  }
  EXPECT_EQ(at, td.makespan);
  telemetry::TraceTick sum = 0;
  for (const telemetry::PathSegment& s : cp.segments) sum += s.dur();
  EXPECT_EQ(sum, td.makespan);
}

TEST(CriticalPath, AttributionSumsToMakespanAcrossTopologies) {
  const Trace tr = small_gaussian();
  for (const noc::TopologyKind kind :
       {noc::TopologyKind::kIdeal, noc::TopologyKind::kMesh,
        noc::TopologyKind::kTorus}) {
    NexusSharp mgr(sharp_cfg(kind));
    const TracedRun r = run_traced(tr, mgr);
    SCOPED_TRACE(noc::to_string(kind));
    check_attribution(r.trace);
  }
}

TEST(CriticalPath, AttributionHoldsForOtherManagers) {
  const Trace tr = small_gaussian();
  {
    NexusPP mgr;
    check_attribution(run_traced(tr, mgr).trace);
  }
  {
    IdealManager mgr;
    check_attribution(run_traced(tr, mgr).trace);
  }
}

TEST(CriticalPath, SingleTaskIsChargedFully) {
  // One task, one core: master prefix + the six phases + master tail must
  // cover the whole run.
  TraceRecorder rec;
  rec.on_submit(0, 10);
  rec.on_accepted(0, 20);
  rec.on_resolved(0, 30);
  rec.on_ready(0, 45);
  rec.on_dispatch(0, 50, 0);
  rec.on_exec(0, 60, 160);
  rec.on_freed(0, 170);
  rec.set_makespan(180);
  const TraceData td = rec.freeze();
  const CriticalPathReport cp = telemetry::critical_path(td);
  EXPECT_EQ(cp.last_task, 0u);
  using telemetry::PathPhase;
  EXPECT_EQ(cp.total(PathPhase::kMaster), 10);
  EXPECT_EQ(cp.total(PathPhase::kIngest), 10);
  EXPECT_EQ(cp.total(PathPhase::kDepWait), 10);
  EXPECT_EQ(cp.total(PathPhase::kWriteback), 15);
  EXPECT_EQ(cp.total(PathPhase::kQueueWait), 5);
  EXPECT_EQ(cp.total(PathPhase::kDispatch), 10);
  EXPECT_EQ(cp.total(PathPhase::kExecute), 100);
  EXPECT_EQ(cp.total(PathPhase::kMasterTail), 20);
  check_attribution(td);
}

TEST(CriticalPath, BindingProducerWinsOverEarlierKicks) {
  // Two producers kick one consumer; the walk must charge the gap to the
  // *latest* kick (task 2), not the earlier one.
  TraceRecorder rec;
  for (std::uint64_t p : {1u, 2u}) {
    rec.on_submit(p, 0);
    rec.on_accepted(p, 0);
    rec.on_resolved(p, 0);
    rec.on_ready(p, 0);
    rec.on_dispatch(p, 0, static_cast<std::int32_t>(p));
  }
  rec.on_exec(1, 0, 50);
  rec.on_exec(2, 0, 90);
  rec.on_submit(3, 0);
  rec.on_accepted(3, 5);
  rec.on_dep(1, 3, 55);
  rec.on_dep(2, 3, 95);
  rec.on_resolved(3, 95);
  rec.on_ready(3, 100);
  rec.on_dispatch(3, 100, 0);
  rec.on_exec(3, 110, 200);
  rec.set_makespan(200);
  const TraceData td = rec.freeze();
  const CriticalPathReport cp = telemetry::critical_path(td);
  EXPECT_EQ(cp.last_task, 3u);
  bool charged_to_2 = false;
  for (const telemetry::PathSegment& s : cp.segments)
    if (s.phase == telemetry::PathPhase::kExecute && s.task == 2)
      charged_to_2 = true;
  EXPECT_TRUE(charged_to_2) << "binding producer must be the latest kick";
  check_attribution(td);
}

// ---------------------------------------------------------------------------
// Chrome exporter invariants (the validator script checks the same things
// on a full bench export; this keeps them under unit-test granularity).
// ---------------------------------------------------------------------------

TEST(TraceExport, JsonCarriesEventsAndExactAttribution) {
  const Trace tr = small_gaussian();
  NexusSharp mgr(sharp_cfg(noc::TopologyKind::kMesh));
  const TracedRun r = run_traced(tr, mgr);
  const std::string json = telemetry::chrome_trace_json(r.trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan_ps\""), std::string::npos);
  // Track metadata for cores, the manager units and the NoC links.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"core0\""), std::string::npos);
  EXPECT_NE(json.find("sharp/arbiter"), std::string::npos);
  // Lifecycle chain phases appear as async begin/end pairs.
  EXPECT_NE(json.find("\"dep_wait\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Open-loop serving conservation: the serving histograms the driver fills
// must reconcile exactly against the span chains — the sojourn histogram is
// the spans' submit->finish set, the serving-latency histogram the
// release->finish set, and every arrival is both offered and accepted.
// ---------------------------------------------------------------------------

TEST(ServingConservation, OpenLoopHistogramsMatchSpanChains) {
  workloads::ArrivalConfig acfg;
  acfg.tasks = 300;
  acfg.clients = 4;
  acfg.kernel = "h264dec-8x8-10f";
  acfg.rate_hz = 4e6;
  const workloads::ArrivalSchedule sched = workloads::generate_arrivals(acfg);
  const Trace tr = workloads::make_serving_trace(sched);

  NexusSharp mgr(sharp_cfg(noc::TopologyKind::kIdeal));
  TraceRecorder rec;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.open_loop = &sched.submission;
  rc.trace = &rec;
  rc.metrics = &reg;
  const RunResult result = run_trace(tr, mgr, rc);
  const TraceData td = rec.freeze();
  const telemetry::Snapshot snap = reg.snapshot();

  ASSERT_EQ(td.tasks.size(), tr.num_tasks());
  EXPECT_EQ(result.tasks, tr.num_tasks());
  // Every arrival was offered and admitted exactly once.
  EXPECT_EQ(snap.counter_at("runtime/offered"), tr.num_tasks());
  EXPECT_EQ(snap.counter_at("runtime/accepted"), tr.num_tasks());

  // Reconstruct the two latency sets from the span chains. Phases
  // telescope to the sojourn (check_conservation's contract), so matching
  // the histogram against span sojourns ties the serving metrics to the
  // per-phase durations of PR 7's trace layer.
  std::uint64_t sojourn_sum = 0;
  std::uint64_t sojourn_min = ~0ULL;
  std::uint64_t sojourn_max = 0;
  std::uint64_t serving_sum = 0;
  for (const TaskSpan& s : td.tasks) {
    ASSERT_TRUE(s.complete()) << "task " << s.task;
    const TaskPhases p = telemetry::phases_of(s);
    const auto sojourn = static_cast<std::uint64_t>(
        p.ingest + p.dep_wait + p.writeback + p.queue_wait + p.dispatch +
        p.execute);
    ASSERT_EQ(sojourn, static_cast<std::uint64_t>(s.sojourn()));
    sojourn_sum += sojourn;
    sojourn_min = std::min(sojourn_min, sojourn);
    sojourn_max = std::max(sojourn_max, sojourn);
    // Open loop: the span's submit stamp is the release-gated attempt, so
    // serving latency is sojourn plus the (zero here) admission backlog.
    EXPECT_GE(s.submit, sched.submission.release[s.task]) << s.task;
    serving_sum += static_cast<std::uint64_t>(
        s.exec_end - sched.submission.release[s.task]);
  }

  const telemetry::MetricValue* soj = snap.find("runtime/sojourn_ps");
  ASSERT_NE(soj, nullptr);
  EXPECT_EQ(soj->hist.count, tr.num_tasks());
  EXPECT_EQ(soj->hist.sum, sojourn_sum);
  EXPECT_EQ(soj->hist.min, sojourn_min);
  EXPECT_EQ(soj->hist.max, sojourn_max);

  const telemetry::MetricValue* serving =
      snap.find("runtime/serving_latency_ps");
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->hist.count, tr.num_tasks());
  EXPECT_EQ(serving->hist.sum, serving_sum);

  // Admission wait: one sample per task, each bounded by that task's
  // serving latency, so the maxima are ordered too.
  const telemetry::MetricValue* adm = snap.find("runtime/admission_wait_ps");
  ASSERT_NE(adm, nullptr);
  EXPECT_EQ(adm->hist.count, tr.num_tasks());
  EXPECT_LE(adm->hist.max, serving->hist.max);

  // Per-client histograms partition the serving-latency set exactly.
  std::uint64_t client_count = 0;
  std::uint64_t client_sum = 0;
  for (std::uint32_t c = 0; c < acfg.clients; ++c) {
    const telemetry::MetricValue* h =
        snap.find("runtime/client" + std::to_string(c) + "/sojourn_ps");
    ASSERT_NE(h, nullptr) << "client " << c;
    client_count += h->hist.count;
    client_sum += h->hist.sum;
  }
  EXPECT_EQ(client_count, tr.num_tasks());
  EXPECT_EQ(client_sum, serving_sum);
}

/// Three open-loop tenants (one four times busier) on a quota-policed
/// Nexus#: the stream set, its traces and each task's release by global id.
struct TenantWorkload {
  std::vector<workloads::ArrivalSchedule> scheds;
  std::vector<Trace> traces;
  std::vector<TenantStream> streams;
  std::vector<Tick> release;

  TenantWorkload() {
    for (std::uint64_t t = 0; t < 3; ++t) {
      workloads::ArrivalConfig acfg;
      acfg.tasks = 120;
      acfg.clients = 1;
      acfg.kernel = "h264dec-8x8-10f";
      acfg.rate_hz = t == 0 ? 4e6 : 1e6;
      acfg.seed = 0x7E4A + t;
      scheds.push_back(workloads::generate_arrivals(acfg));
    }
    for (const workloads::ArrivalSchedule& s : scheds)
      traces.push_back(workloads::make_serving_trace(s));
    for (std::size_t t = 0; t < scheds.size(); ++t) {
      const std::vector<Tick>& rel = scheds[t].submission.release;
      streams.push_back({&traces[t], rel});
      release.insert(release.end(), rel.begin(), rel.end());
    }
  }

  static NexusSharpConfig manager() {
    NexusSharpConfig cfg = sharp_cfg(noc::TopologyKind::kIdeal);
    cfg.pool_capacity = 16;
    cfg.tenancy.tenants = 3;
    cfg.tenancy.quota.pool = 4;
    return cfg;
  }
};

TEST(ServingConservation, TenantRunHistogramsMatchSpanChains) {
  // run_tenants feeds the same lifecycle spans and runtime histograms as
  // the single-stream open loop, keyed by global task id.
  const TenantWorkload w;
  NexusSharp mgr(TenantWorkload::manager());
  TraceRecorder rec;
  telemetry::MetricRegistry reg;
  RuntimeConfig rc;
  rc.workers = 8;
  rc.trace = &rec;
  rc.metrics = &reg;
  const TenantRunResult result = run_tenants(w.streams, mgr, rc);
  const TraceData td = rec.freeze();
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_GT(mgr.stats().nacks, 0u);

  ASSERT_EQ(td.tasks.size(), w.release.size());
  EXPECT_EQ(td.makespan, result.makespan);
  EXPECT_EQ(snap.counter_at("runtime/offered"), w.release.size());
  EXPECT_EQ(snap.counter_at("runtime/accepted"), w.release.size());
  EXPECT_EQ(snap.counter_at("runtime/dispatches"), w.release.size());

  std::uint64_t sojourn_sum = 0;
  std::uint64_t serving_sum = 0;
  for (const TaskSpan& s : td.tasks) {
    ASSERT_TRUE(s.complete()) << "task " << s.task;
    const TaskPhases p = telemetry::phases_of(s);
    EXPECT_EQ(p.ingest + p.dep_wait + p.writeback + p.queue_wait + p.dispatch +
                  p.execute,
              s.sojourn())
        << "task " << s.task;
    EXPECT_GE(s.submit, w.release[s.task]) << s.task;
    sojourn_sum += static_cast<std::uint64_t>(s.sojourn());
    serving_sum += static_cast<std::uint64_t>(s.exec_end - w.release[s.task]);
  }
  const telemetry::MetricValue* soj = snap.find("runtime/sojourn_ps");
  ASSERT_NE(soj, nullptr);
  EXPECT_EQ(soj->hist.count, w.release.size());
  EXPECT_EQ(soj->hist.sum, sojourn_sum);
  const telemetry::MetricValue* serving = snap.find("runtime/serving_latency_ps");
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->hist.count, w.release.size());
  EXPECT_EQ(serving->hist.sum, serving_sum);
  const telemetry::MetricValue* wait = snap.find("runtime/queue_wait_ps");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->hist.count, w.release.size());

  // The per-tenant raw vectors partition the same latency set.
  std::uint64_t raw_count = 0;
  std::uint64_t raw_sum = 0;
  for (const TenantLatency& t : result.tenants) {
    raw_count += t.raw.size();
    for (const Tick v : t.raw) raw_sum += static_cast<std::uint64_t>(v);
  }
  EXPECT_EQ(raw_count, w.release.size());
  EXPECT_EQ(raw_sum, serving_sum);
}

TEST(TraceZeroOverhead, TenantRunBitIdenticalWithAndWithoutRecorder) {
  const TenantWorkload w;
  auto run_one = [&](TraceRecorder* rec, std::vector<ScheduleEntry>* sched) {
    NexusSharp mgr(TenantWorkload::manager());
    RuntimeConfig rc;
    rc.workers = 8;
    rc.trace = rec;
    rc.schedule_out = sched;
    return run_tenants(w.streams, mgr, rc);
  };
  TraceRecorder rec;
  std::vector<ScheduleEntry> with;
  std::vector<ScheduleEntry> without;
  const TenantRunResult a = run_one(&rec, &with);
  const TenantRunResult b = run_one(nullptr, &without);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].raw, b.tenants[t].raw) << "tenant " << t;
    EXPECT_EQ(a.tenants[t].nack_holds, b.tenants[t].nack_holds) << "tenant " << t;
  }
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].task, without[i].task) << "entry " << i;
    EXPECT_EQ(with[i].worker, without[i].worker) << "entry " << i;
    EXPECT_EQ(with[i].start, without[i].start) << "entry " << i;
    EXPECT_EQ(with[i].end, without[i].end) << "entry " << i;
  }
  EXPECT_EQ(rec.freeze().tasks.size(), w.release.size());
}

TEST(TraceRecorderUnit, FirstSubmitWinsAndFreezeSorts) {
  TraceRecorder rec;
  rec.on_submit(7, 100);
  rec.on_submit(7, 250);  // back-pressured retry: must not move the stamp
  rec.on_submit(3, 50);
  const TraceData td = rec.freeze();
  ASSERT_EQ(td.tasks.size(), 2u);
  EXPECT_EQ(td.tasks[0].task, 3u);
  EXPECT_EQ(td.tasks[1].task, 7u);
  EXPECT_EQ(td.tasks[1].submit, 100);
}

}  // namespace
}  // namespace nexus
