// Determinism coverage: the whole stack — rng, workload generation,
// trace_stats, the DES kernel, and full trace-driven runs — must be
// bit-reproducible given the same seed. Every experiment in the paper
// harness depends on this property.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/noc/placement.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/task/trace_stats.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

// ---------------------------------------------------------------------------
// RNG engine: identical seed => identical stream; different seed => different.
// ---------------------------------------------------------------------------

TEST(Determinism, RngStreamsReproduce) {
  Xoshiro256 a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = a(), vb = b(), vc = c();
    ASSERT_EQ(va, vb) << "same-seed streams diverged at draw " << i;
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical streams";
}

// ---------------------------------------------------------------------------
// Workload generation: two generator invocations with the same config must
// produce bit-identical traces, and compute_stats must agree field-for-field.
// ---------------------------------------------------------------------------

void expect_traces_identical(const Trace& x, const Trace& y) {
  ASSERT_EQ(x.num_tasks(), y.num_tasks());
  ASSERT_EQ(x.num_events(), y.num_events());
  for (TaskId id = 0; id < x.num_tasks(); ++id) {
    const TaskDescriptor& tx = x.task(id);
    const TaskDescriptor& ty = y.task(id);
    ASSERT_EQ(tx.id, ty.id) << "task " << id;
    ASSERT_EQ(tx.fn, ty.fn) << "task " << id;
    ASSERT_EQ(tx.duration, ty.duration) << "task " << id;
    ASSERT_TRUE(tx.params == ty.params) << "task " << id;
  }
  for (std::size_t i = 0; i < x.num_events(); ++i) {
    ASSERT_TRUE(x.events()[i] == y.events()[i]) << "event " << i;
  }
}

void expect_stats_identical(const Trace& x, const Trace& y) {
  const TraceStats sx = compute_stats(x);
  const TraceStats sy = compute_stats(y);
  EXPECT_EQ(sx.num_tasks, sy.num_tasks);
  EXPECT_EQ(sx.total_work, sy.total_work);
  EXPECT_EQ(sx.avg_task, sy.avg_task);
  EXPECT_EQ(sx.min_params, sy.min_params);
  EXPECT_EQ(sx.max_params, sy.max_params);
  EXPECT_EQ(sx.num_taskwaits, sy.num_taskwaits);
  EXPECT_EQ(sx.num_taskwait_ons, sy.num_taskwait_ons);
  EXPECT_EQ(sx.distinct_addresses, sy.distinct_addresses);
  EXPECT_EQ(sx.params_histogram, sy.params_histogram);
}

TEST(Determinism, CrayGeneratorReproduces) {
  const Trace a = workloads::make_cray();
  const Trace b = workloads::make_cray();
  expect_traces_identical(a, b);
  expect_stats_identical(a, b);
}

TEST(Determinism, RotccGeneratorReproduces) {
  workloads::RotccConfig cfg;
  cfg.lines = 500;  // small instance keeps the suite fast
  const Trace a = workloads::make_rotcc(cfg);
  const Trace b = workloads::make_rotcc(cfg);
  expect_traces_identical(a, b);
  expect_stats_identical(a, b);
}

TEST(Determinism, SeedChangesTheTrace) {
  workloads::CrayConfig cfg;
  const Trace a = workloads::make_cray(cfg);
  cfg.seed ^= 0xDEADBEEF;
  const Trace b = workloads::make_cray(cfg);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());  // structure is config-driven...
  bool any_diff = false;                    // ...but durations are seed-driven
  for (TaskId id = 0; id < a.num_tasks(); ++id)
    any_diff |= (a.task(id).duration != b.task(id).duration);
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// DES kernel: with seeded random components, two simulations must dispatch
// the exact same event sequence — including same-tick ties, which the kernel
// breaks by issue order (Event::seq), never by pointer or hash order.
// ---------------------------------------------------------------------------

struct LoggedEvent {
  Tick t;
  std::uint32_t comp;
  std::uint32_t op;
  std::uint64_t a;
  std::uint64_t b;

  friend bool operator==(const LoggedEvent&, const LoggedEvent&) = default;
};

// Handles events by logging them and randomly fanning out follow-ups, with
// deliberately colliding timestamps to stress tie-breaking.
class ChatterBox final : public Component {
 public:
  ChatterBox(std::uint64_t seed, int budget, std::vector<LoggedEvent>* log)
      : rng_(seed), budget_(budget), log_(log) {}

  void attach(Simulation& sim) { id_ = sim.add_component(this); }
  void set_peer(std::uint32_t peer) { peer_ = peer; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

  void kick(Simulation& sim, int n) {
    for (int i = 0; i < n; ++i) {
      // Draws hoisted into locals: argument evaluation order is unspecified,
      // and the certified stream must not depend on the compiler's choice.
      const Tick delay = rng_.below(4);
      const std::uint64_t payload = rng_();
      sim.schedule_in(delay, id_, /*op=*/0, payload, static_cast<std::uint64_t>(i));
    }
  }

  void handle(Simulation& sim, const Event& ev) override {
    log_->push_back({ev.t, ev.comp, ev.op, ev.a, ev.b});
    if (budget_ <= 0) return;
    --budget_;
    const int fanout = static_cast<int>(rng_.below(3));  // 0..2 follow-ups
    for (int i = 0; i < fanout; ++i) {
      const std::uint32_t dest = (rng_.below(2) == 0) ? id_ : peer_;
      // below(3) makes same-tick collisions common on purpose. Draws are
      // hoisted so the stream can't depend on argument evaluation order.
      const Tick delay = rng_.below(3);
      const std::uint64_t payload = rng_();
      sim.schedule_in(delay, dest, ev.op + 1, payload, ev.a);
    }
  }

 private:
  Xoshiro256 rng_;
  int budget_;
  std::vector<LoggedEvent>* log_;
  std::uint32_t id_ = 0;
  std::uint32_t peer_ = 0;
};

std::vector<LoggedEvent> run_chatter(std::uint64_t seed) {
  std::vector<LoggedEvent> log;
  Simulation sim;
  ChatterBox alpha(seed, /*budget=*/400, &log);
  ChatterBox beta(seed ^ 0x1234, /*budget=*/400, &log);
  alpha.attach(sim);
  beta.attach(sim);
  alpha.set_peer(beta.id());
  beta.set_peer(alpha.id());
  alpha.kick(sim, 8);
  beta.kick(sim, 8);
  sim.run();
  return log;
}

TEST(Determinism, SimulationEventOrderReproduces) {
  const std::vector<LoggedEvent> a = run_chatter(7);
  const std::vector<LoggedEvent> b = run_chatter(7);
  ASSERT_GT(a.size(), 16u);  // the chatter actually fanned out
  EXPECT_EQ(a, b);
}

TEST(Determinism, SimulationSeedChangesEventOrder) {
  const std::vector<LoggedEvent> a = run_chatter(7);
  const std::vector<LoggedEvent> b = run_chatter(8);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Full stack: trace-driven Nexus# runs must reproduce makespan, event counts
// and the complete per-worker schedule.
// ---------------------------------------------------------------------------

TEST(Determinism, RunTraceReproducesScheduleExactly) {
  workloads::GaussianConfig gcfg;
  gcfg.n = 60;
  const Trace tr = workloads::make_gaussian(gcfg);

  auto run_once = [&tr](std::vector<ScheduleEntry>* sched) {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    NexusSharp mgr(cfg);
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = sched;
    return run_trace(tr, mgr, rc);
  };

  std::vector<ScheduleEntry> sched_a, sched_b;
  const RunResult a = run_once(&sched_a);
  const RunResult b = run_once(&sched_b);

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.utilization, b.utilization);

  ASSERT_EQ(sched_a.size(), sched_b.size());
  for (std::size_t i = 0; i < sched_a.size(); ++i) {
    EXPECT_EQ(sched_a[i].task, sched_b[i].task) << "entry " << i;
    EXPECT_EQ(sched_a[i].worker, sched_b[i].worker) << "entry " << i;
    EXPECT_EQ(sched_a[i].start, sched_b[i].start) << "entry " << i;
    EXPECT_EQ(sched_a[i].end, sched_b[i].end) << "entry " << i;
  }
}

TEST(Determinism, NetworkEventOrderingReproduces) {
  // Mesh topologies multiply event counts (one per hop) and break every
  // message into link acquisitions whose FIFO order is decided purely by
  // (time, issue-seq) — two identical runs must agree on the makespan, the
  // full schedule, and every NoC counter.
  workloads::GaussianConfig gcfg;
  gcfg.n = 60;
  const Trace tr = workloads::make_gaussian(gcfg);

  auto run_mesh = [&tr](std::vector<ScheduleEntry>* sched, RunResult* out) {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    cfg.noc.kind = noc::TopologyKind::kMesh;
    NexusSharp mgr(cfg);
    telemetry::MetricRegistry reg;
    RuntimeConfig rc;
    rc.workers = 8;
    rc.noc.kind = noc::TopologyKind::kRing;  // host ring, manager mesh
    rc.schedule_out = sched;
    rc.metrics = &reg;
    *out = run_trace(tr, mgr, rc);
    return reg.snapshot();
  };

  std::vector<ScheduleEntry> sched_a, sched_b;
  RunResult a, b;
  const telemetry::Snapshot na = run_mesh(&sched_a, &a);
  const telemetry::Snapshot nb = run_mesh(&sched_b, &b);

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(na.counter_at("nexus#/noc/blocked_flits"), 0u)
      << "the mesh run never contended";
  // Every counter of both runs: NoC messages, hops, stalls, per-link flits
  // and busy time among them.
  EXPECT_EQ(telemetry::snapshot_json(na), telemetry::snapshot_json(nb));
  ASSERT_EQ(sched_a.size(), sched_b.size());
  for (std::size_t i = 0; i < sched_a.size(); ++i) {
    EXPECT_EQ(sched_a[i].task, sched_b[i].task) << "entry " << i;
    EXPECT_EQ(sched_a[i].worker, sched_b[i].worker) << "entry " << i;
    EXPECT_EQ(sched_a[i].start, sched_b[i].start) << "entry " << i;
    EXPECT_EQ(sched_a[i].end, sched_b[i].end) << "entry " << i;
  }
}

TEST(Determinism, PlacementSearchReproduces) {
  // End-to-end reproducibility of the placement pipeline: two identical
  // mesh runs measure bit-identical traffic matrices, and two searches over
  // that matrix (same seed) return bit-identical assignments and costs —
  // the property that makes BENCH_placement.json diffable at all.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(8));
  auto measure = [&tr]() {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 6;
    cfg.freq_mhz = 100.0;
    cfg.noc.kind = noc::TopologyKind::kMesh;
    NexusSharp mgr(cfg);
    run_trace(tr, mgr, RuntimeConfig{.workers = 16});
    return mgr.network().traffic();
  };
  const std::vector<std::uint64_t> ta = measure();
  const std::vector<std::uint64_t> tb = measure();
  ASSERT_EQ(ta, tb) << "measured traffic matrices diverged";

  const std::uint32_t endpoints = sharp_noc_endpoints(6);
  const noc::Topology topo(noc::TopologyKind::kMesh, endpoints);
  const noc::TrafficMatrix m = noc::TrafficMatrix::from_network(endpoints, ta);
  const noc::PlacementResult a = noc::optimize_placement(topo, m);
  const noc::PlacementResult b = noc::optimize_placement(topo, m);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.greedy_swaps, b.greedy_swaps);
  EXPECT_EQ(a.anneal_accepts, b.anneal_accepts);
  EXPECT_LT(a.cost, a.initial_cost) << "search should beat the corner layout";

  // A different annealing seed still reproduces against itself.
  noc::PlacementOptions opts;
  opts.seed = 1234567;
  const noc::PlacementResult c = noc::optimize_placement(topo, m, opts);
  const noc::PlacementResult d = noc::optimize_placement(topo, m, opts);
  EXPECT_EQ(c.assignment, d.assignment);
  EXPECT_EQ(c.cost, d.cost);
}

TEST(Determinism, TorusRunWithPlacementReproduces) {
  // The full gen-2 configuration — torus fabric, optimized placement,
  // kMeta over the NoC — must still be bit-reproducible run to run.
  workloads::GaussianConfig gcfg;
  gcfg.n = 60;
  const Trace tr = workloads::make_gaussian(gcfg);
  auto run_once = [&tr](std::vector<ScheduleEntry>* sched) {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    cfg.noc.kind = noc::TopologyKind::kTorus;
    cfg.noc.placement = {5, 0, 1, 2, 3, 4};  // rotate all six endpoints
    cfg.noc.placement_name = "rot1";
    NexusSharp mgr(cfg);
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = sched;
    return run_trace(tr, mgr, rc).makespan;
  };
  std::vector<ScheduleEntry> sa, sb;
  const Tick a = run_once(&sa);
  const Tick b = run_once(&sb);
  EXPECT_EQ(a, b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].task, sb[i].task) << "entry " << i;
    EXPECT_EQ(sa[i].start, sb[i].start) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Open-loop serving: the arrival generators plus the release-gated driver
// must stay bit-reproducible — same seed means identical executed schedules
// AND identical BENCH records — on ideal, mesh and torus interconnects. This
// is what pins the committed BENCH_serving.json trajectory.
// ---------------------------------------------------------------------------

/// Everything observable about one run: the result scalars, the full
/// per-worker schedule, and the complete metric snapshot as JSON.
struct ObservedRun {
  Tick makespan = 0;
  std::uint64_t events = 0;
  std::vector<ScheduleEntry> schedule;
  std::string metrics_json;
};

void expect_runs_identical(const ObservedRun& x, const ObservedRun& y,
                           const char* what) {
  EXPECT_EQ(x.makespan, y.makespan) << what;
  EXPECT_EQ(x.events, y.events) << what;
  EXPECT_EQ(x.metrics_json, y.metrics_json) << what;
  ASSERT_EQ(x.schedule.size(), y.schedule.size()) << what;
  for (std::size_t i = 0; i < x.schedule.size(); ++i) {
    ASSERT_EQ(x.schedule[i].task, y.schedule[i].task) << what << " entry " << i;
    ASSERT_EQ(x.schedule[i].worker, y.schedule[i].worker)
        << what << " entry " << i;
    ASSERT_EQ(x.schedule[i].start, y.schedule[i].start)
        << what << " entry " << i;
    ASSERT_EQ(x.schedule[i].end, y.schedule[i].end) << what << " entry " << i;
  }
}

TEST(Determinism, OpenLoopServingReproducesOnEveryTopology) {
  workloads::ArrivalConfig acfg;
  acfg.process = workloads::ArrivalProcess::kBursty;
  acfg.tasks = 250;
  acfg.clients = 4;
  acfg.kernel = "h264dec-8x8-10f";
  acfg.rate_hz = 4e6;
  const workloads::ArrivalSchedule sched = workloads::generate_arrivals(acfg);
  const Trace tr = workloads::make_serving_trace(sched);

  for (const noc::TopologyKind topo :
       {noc::TopologyKind::kIdeal, noc::TopologyKind::kMesh,
        noc::TopologyKind::kTorus}) {
    std::vector<ObservedRun> runs;
    std::vector<std::string> records;
    for (int run = 0; run < 2; ++run) {
      ObservedRun out;
      telemetry::MetricRegistry reg;
      NexusSharpConfig cfg;
      cfg.num_task_graphs = 4;
      cfg.freq_mhz = 100.0;
      cfg.noc.kind = topo;
      NexusSharp mgr(cfg);
      RuntimeConfig rc;
      rc.workers = 8;
      rc.noc.kind = topo;
      rc.open_loop = &sched.submission;
      rc.schedule_out = &out.schedule;
      rc.metrics = &reg;
      const RunResult r = run_trace(tr, mgr, rc);
      out.makespan = r.makespan;
      out.events = r.events;
      const telemetry::Snapshot snap = reg.snapshot();
      out.metrics_json = telemetry::snapshot_json(snap);
      runs.push_back(std::move(out));
      records.push_back(harness::metrics_report_json(
          "determinism", "serving-bursty", "nexus#-4TG", 8, r.makespan, 0.0,
          &snap, nullptr, noc::to_string(topo)));
    }
    expect_runs_identical(runs[0], runs[1], noc::to_string(topo));
    EXPECT_EQ(records[0], records[1])
        << "BENCH record diverged between runs on "
        << noc::to_string(topo);
    // Release gating held on every interconnect: no early starts.
    for (const ScheduleEntry& e : runs[0].schedule)
      ASSERT_GE(e.start, sched.submission.release[e.task]) << e.task;
  }
}

}  // namespace
}  // namespace nexus
