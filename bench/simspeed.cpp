// DES kernel throughput: events/sec of the radix-heap scheduler on a
// synthetic hold-model event storm and on Table-II workloads through the
// full Nexus# stack (by default sparselu and h264dec-8x8 on the ideal
// fabric plus gaussian-250 with a mesh NoC, where per-hop routing is hot).
//
// The storm is a PHOLD-style hold model: a fixed in-flight population of
// events, each handled event scheduling one successor at a seeded random
// delay (mostly uniform, with same-tick bursts and far-future stragglers).
// Every row runs twice and the self-gate checks that makespan, event count
// and (storm) an order-sensitive checksum repeat, so a rate from a kernel
// that stopped being deterministic is never reported. The records hold the
// deterministic makespan plus wall-clock simspeed/* gauges and the
// prof/*_ns host-time totals of a profiled re-run. --quick is the smoke
// run: a 200k-event storm over 100k in flight and no workloads.
#include <chrono>
#include <cstdio>

#include "bench.hpp"
#include "nexus/common/rng.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus::bench {
namespace {

constexpr Tick kMeanDelay = 20000;  // ~2 cycles at 100 MHz
constexpr std::uint32_t kStormComponents = 256;
constexpr std::uint64_t kStormSeed = 42;

/// Every event schedules exactly one successor, so the in-flight population
/// (and therefore the pending-queue size) stays at what the priming injected.
class StormCore final : public Component {
 public:
  StormCore(std::uint64_t seed, std::uint64_t* checksum)
      : rng_(seed), checksum_(checksum) {}

  void handle(Simulation& sim, const Event& ev) override {
    // Order-sensitive checksum: multiplying the running value in ties the
    // result to the exact pop order, not just the popped multiset.
    *checksum_ = (*checksum_ * 0x9E3779B97F4A7C15ULL) ^
                 static_cast<std::uint64_t>(ev.t) ^ (ev.a << 17);
    // Draws hoisted: the certified stream must not depend on argument
    // evaluation order (same discipline as determinism_test).
    const std::uint64_t sel = rng_.below(128);
    const Tick delay = sel < 6    ? 0                       // same-tick burst
                       : sel < 8  ? 100 * kMeanDelay        // straggler
                                  : static_cast<Tick>(rng_.below(2 * kMeanDelay));
    const auto dest = static_cast<std::uint32_t>(rng_.below(kStormComponents));
    sim.schedule_in(delay, dest, ev.op, ev.a + 1);
  }

 private:
  Xoshiro256 rng_;
  std::uint64_t* checksum_;
};

/// One timed run: what must repeat, and the wall clock it took.
struct Timing {
  Tick makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
  double wall_us = 0.0;

  [[nodiscard]] double events_per_sec() const {
    return wall_us > 0.0 ? static_cast<double>(events) / (wall_us * 1e-6) : 0.0;
  }
  [[nodiscard]] bool repeats(const Timing& o) const {
    return makespan == o.makespan && events == o.events && checksum == o.checksum;
  }
};

double wall_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

Timing run_storm(std::uint64_t n_events, std::uint64_t inflight,
                 telemetry::Profiler* prof) {
  Simulation sim;
  if (prof != nullptr) sim.bind({.profiler = prof});
  Timing r;
  r.checksum = 0x6E78757353696D21ULL;
  std::vector<StormCore> cores;
  cores.reserve(kStormComponents);
  for (std::uint32_t i = 0; i < kStormComponents; ++i)
    cores.emplace_back(kStormSeed ^ (0x1000 + i), &r.checksum);
  for (auto& c : cores) sim.add_component(&c);
  Xoshiro256 prime(kStormSeed);
  for (std::uint64_t i = 0; i < inflight; ++i) {
    const Tick t = static_cast<Tick>(prime.below(2 * kMeanDelay));
    const auto dest = static_cast<std::uint32_t>(prime.below(kStormComponents));
    sim.schedule(t, dest, /*op=*/0, /*a=*/i);
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_some(n_events);
  r.wall_us = wall_us_since(t0);
  r.makespan = sim.now();
  r.events = sim.events_processed();
  return r;
}

/// One run_trace of `c` (Nexus# with the cell's fabric on both NoCs).
Timing run_workload(const Cell& c, const Trace& tr, telemetry::Profiler* prof) {
  NexusSharp mgr(c.spec.sharp);
  RuntimeConfig rc = c.rc;
  rc.workers = c.cores;
  rc.profiler = prof;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult res = run_trace(tr, mgr, rc);
  return {res.makespan, res.events, 0, wall_us_since(t0)};
}

Grid simspeed_grid(const Flags& f) {
  Grid g{.managers = managers({"nexus#-6TG"}), .cores = {32}};
  if (!f.get_bool("quick", false))
    g.workloads = {"sparselu", "h264dec-8x8-10f", "gaussian-250:mesh"};
  return g;
}

std::uint64_t storm_events(bool quick) { return quick ? 200000 : 1000000; }

/// "kernel-heap" keeps the join key of the rows committed while the queue
/// was a binary heap.
RowKey storm_key(std::uint64_t events) {
  return {"storm-" + std::to_string(events), "kernel-heap", "ideal", "default", 1};
}

RowKey kernel_key(const Cell& c) {
  RowKey k = key_of(c);
  k.manager = "kernel-heap";
  return k;
}

/// The storm row, then one row per cell.
std::vector<RowKey> simspeed_rows(const Grid& g, const Flags& f) {
  std::vector<RowKey> rows{storm_key(storm_events(f.get_bool("quick", false)))};
  for (const Cell& c : g.cells()) rows.push_back(kernel_key(c));
  return rows;
}

int simspeed(Run& run) {
  const std::uint64_t n_events = storm_events(run.quick);
  const std::uint64_t inflight = run.quick ? 100000 : 1048576;
  std::printf("simspeed: DES kernel throughput\n\n");
  TextTable t({"workload", "events", "wall (ms)", "events/sec"});

  // One row: two detached timed runs that must repeat, then a profiled
  // re-run whose host-time totals become prof/* gauges (the measurement
  // stays detached, so attribution never taxes events/sec).
  const auto row = [&](const RowKey& key,
                       const std::function<Timing(telemetry::Profiler*)>& go) {
    const std::string label = key.topology == "ideal"
                                  ? key.workload
                                  : key.workload + ":" + key.topology;
    const Timing r = go(nullptr);
    const bool repeated = r.repeats(go(nullptr));
    run.gate(repeated);
    t.add_row({label, TextTable::integer(static_cast<long long>(r.events)),
               TextTable::num(r.wall_us * 1e-3, 2),
               TextTable::integer(static_cast<long long>(r.events_per_sec()))});
    telemetry::MetricRegistry reg;
    reg.gauge("simspeed/events").set(static_cast<std::int64_t>(r.events));
    reg.gauge("simspeed/events_per_sec")
        .set(static_cast<std::int64_t>(r.events_per_sec()));
    reg.gauge("simspeed/wall_us").set(static_cast<std::int64_t>(r.wall_us));
    telemetry::Profiler profiler;
    go(&profiler);
    const telemetry::ProfileData d = profiler.freeze();
    for (const auto& [gauge, node] : {std::pair{"prof/push_ns", "queue;push"},
                                      {"prof/pop_ns", "queue;pop"},
                                      {"prof/handle_ns", "handle"}}) {
      const telemetry::ProfileNode* n = d.find(node);
      reg.gauge(gauge).set(static_cast<std::int64_t>(n != nullptr ? n->total_ns : 0));
    }
    reg.gauge("prof/total_ns")
        .set(static_cast<std::int64_t>(d.nodes.empty() ? 0 : d.nodes[0].total_ns));
    const telemetry::Snapshot snap = reg.snapshot();
    run.record(key, r.makespan, 1.0, &snap);
    return std::pair{r, repeated};
  };

  const auto [storm, storm_repeated] =
      row(storm_key(n_events),
          [&](telemetry::Profiler* p) { return run_storm(n_events, inflight, p); });
  for (const Cell& c : run.grid.cells()) {
    const Trace& tr = run.trace(c.workload);
    row(kernel_key(c), [&](telemetry::Profiler* p) { return run_workload(c, tr, p); });
  }
  t.print();
  if (storm_repeated) {
    std::printf("\nstorm determinism check: makespan %lld, checksum %016llx — "
                "identical across two runs (%llu in-flight)\n",
                static_cast<long long>(storm.makespan),
                static_cast<unsigned long long>(storm.checksum),
                static_cast<unsigned long long>(inflight));
  }
  if (!run.flags.has("max-overhead-pct")) return 0;

  // Attached-overhead smoke: min-of-3 walls per side on the fig9 workload
  // (gaussian-250, full Nexus# stack) filters scheduler noise — the minimum
  // is the least-perturbed run each side achieved.
  const Cell smoke = run.grid.at("gaussian-250", noc::TopologyKind::kIdeal,
                                 run.grid.managers.front(), 8);
  const Trace& tr = run.trace(smoke.workload);
  double detached_us = 0.0;
  double attached_us = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double d = run_workload(smoke, tr, nullptr).wall_us;
    telemetry::Profiler attached;
    const double a = run_workload(smoke, tr, &attached).wall_us;
    if (detached_us == 0.0 || d < detached_us) detached_us = d;
    if (attached_us == 0.0 || a < attached_us) attached_us = a;
  }
  const double overhead_pct =
      detached_us > 0.0 ? (attached_us - detached_us) / detached_us * 100.0 : 0.0;
  std::printf("profiler overhead smoke (gaussian-250, min of 3): "
              "detached %.2f ms, attached %.2f ms, overhead %.1f%%\n",
              detached_us * 1e-3, attached_us * 1e-3, overhead_pct);
  const double max_overhead = run.flags.get_double("max-overhead-pct", 0.0);
  if (overhead_pct > max_overhead) {
    std::fprintf(stderr, "FAIL: profiler overhead %.1f%% > allowed %.1f%%\n",
                 overhead_pct, max_overhead);
    return 1;
  }
  return 0;
}

}  // namespace

std::vector<Experiment> simspeed_experiments() {
  return {
      {.name = "simspeed", .artefact = "DES kernel events per second",
       .grid = simspeed_grid, .body = simspeed,
       .gate = "every row repeats bit for bit", .bench = "simspeed",
       .record_flags = "", .rows = simspeed_rows,
       .flags = {{"max-overhead-pct",
                  "run the profiler overhead smoke; fail above this overhead"}}},
  };
}

}  // namespace nexus::bench
