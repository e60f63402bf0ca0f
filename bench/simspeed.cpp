// DES kernel throughput: events/sec of the radix-heap scheduler on (a) a
// synthetic hold-model event storm and (b) Table-II workload runs through
// the full Nexus# stack, by default on the ideal fabric plus one run with a
// mesh NoC on the manager and host fabrics, where per-hop routing is hot.
//
// The storm is a PHOLD-style hold model: a fixed in-flight population of
// events, each handled event scheduling exactly one successor at a seeded
// random delay (mostly uniform, with same-tick bursts and far-future
// stragglers mixed in). Every row runs twice and the bench cross-checks
// makespan, event count and (storm) an order-sensitive checksum between
// the runs, so a rate from a kernel that stopped being deterministic can
// never be reported.
//
// With --json=<path> it writes BENCH_simspeed.json records: one row per
// workload (mesh rows carry topology "mesh"), manager "kernel-heap", the
// deterministic sim makespan (perfdiff gates it tightly), and wall-clock
// metrics simspeed/events_per_sec + simspeed/wall_us (gated
// improvement-only with a generous tolerance — wall clock is
// machine-dependent). The record's "speedup" field is 1.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/common/rng.hpp"
#include "nexus/common/table.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/noc/topology.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/telemetry/profile_export.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/workloads/workloads.hpp"

using namespace nexus;

namespace {

constexpr Tick kMeanDelay = 20000;  // ~2 cycles at 100 MHz

/// Hold-model component: every event schedules exactly one successor, so
/// the in-flight population (and therefore the pending-queue size) stays
/// constant at whatever the priming pass injected.
class StormCore final : public Component {
 public:
  StormCore(std::uint64_t seed, std::uint32_t ncomp, std::uint64_t* checksum)
      : rng_(seed), ncomp_(ncomp), checksum_(checksum) {}

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
    const auto dest = static_cast<std::uint32_t>(rng_.below(ncomp_));
    sim.schedule_in(delay, dest, ev.op, ev.a + 1);
  }

 private:
  Xoshiro256 rng_;
  std::uint32_t ncomp_;
  std::uint64_t* checksum_;
};

struct StormResult {
  Tick makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
  double wall_us = 0.0;
  double events_per_sec = 0.0;
};

/// The schema-4 host-time fields: where the simulator's own wall clock
/// went during a profiled re-run, total (inclusive) ns per kernel phase.
/// Folded into BENCH records as prof/* gauges — report-only perfdiff
/// watches, because wall time tracks the machine, not the code under test.
struct HostProfile {
  std::uint64_t push_ns = 0;
  std::uint64_t pop_ns = 0;
  std::uint64_t handle_ns = 0;
  std::uint64_t total_ns = 0;
};

HostProfile host_profile_from(const telemetry::ProfileData& d) {
  HostProfile h;
  if (const auto* n = d.find("queue;push")) h.push_ns = n->total_ns;
  if (const auto* n = d.find("queue;pop")) h.pop_ns = n->total_ns;
  if (const auto* n = d.find("handle")) h.handle_ns = n->total_ns;
  if (!d.nodes.empty()) h.total_ns = d.nodes[0].total_ns;
  return h;
}

StormResult run_storm(std::uint64_t n_events, std::uint64_t inflight,
                      std::uint32_t ncomp, std::uint64_t seed,
                      telemetry::ProfileData* profile_out = nullptr) {
  Simulation sim;
  telemetry::Profiler prof;
  if (profile_out != nullptr) sim.bind_profiler(prof);
  std::uint64_t checksum = 0x6E78757353696D21ULL;
  std::vector<StormCore> cores;
  cores.reserve(ncomp);
  for (std::uint32_t i = 0; i < ncomp; ++i)
    cores.emplace_back(seed ^ (0x1000 + i), ncomp, &checksum);
  for (auto& c : cores) sim.add_component(&c);

  Xoshiro256 prime(seed);
  for (std::uint64_t i = 0; i < inflight; ++i) {
    const Tick t = static_cast<Tick>(prime.below(2 * kMeanDelay));
    const auto dest = static_cast<std::uint32_t>(prime.below(ncomp));
    sim.schedule(t, dest, /*op=*/0, /*a=*/i);
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_some(n_events);
  const auto t1 = std::chrono::steady_clock::now();

  StormResult r;
  r.makespan = sim.now();
  r.events = sim.events_processed();
  r.checksum = checksum;
  r.wall_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          t1 - t0)
          .count();
  r.events_per_sec = r.wall_us > 0.0 ? static_cast<double>(r.events) /
                                           (r.wall_us * 1e-6)
                                     : 0.0;
  if (profile_out != nullptr) *profile_out = prof.freeze();
  return r;
}

struct TraceResult {
  Tick makespan = 0;
  std::uint64_t events = 0;
  double wall_us = 0.0;
  double events_per_sec = 0.0;
};

/// One run_trace through Nexus# (6 TGs) with `fabric` as both the manager
/// and the host NoC topology.
TraceResult run_workload(const Trace& tr, std::uint32_t cores,
                         noc::TopologyKind fabric,
                         telemetry::ProfileData* profile_out = nullptr) {
  harness::ManagerSpec spec = harness::ManagerSpec::nexussharp(6);
  spec.sharp.noc.kind = fabric;
  NexusSharp mgr(spec.sharp);
  telemetry::Profiler prof;
  RuntimeConfig rc;
  rc.workers = cores;
  rc.noc.kind = fabric;
  if (profile_out != nullptr) rc.profiler = &prof;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult res = run_trace(tr, mgr, rc);
  const auto t1 = std::chrono::steady_clock::now();
  TraceResult r;
  r.makespan = res.makespan;
  r.events = res.events;
  r.wall_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          t1 - t0)
          .count();
  r.events_per_sec =
      r.wall_us > 0.0 ? static_cast<double>(r.events) / (r.wall_us * 1e-6) : 0.0;
  if (profile_out != nullptr) *profile_out = prof.freeze();
  return r;
}

/// One BENCH record: the deterministic makespan plus wall-clock gauges.
/// A non-null `host` (from a --prof re-run) folds the schema-4 host-time
/// fields in as prof/* gauges.
std::string record(const std::string& workload, std::uint32_t cores,
                   Tick makespan, std::uint64_t events, double wall_us,
                   double events_per_sec, const HostProfile* host = nullptr,
                   noc::TopologyKind fabric = noc::TopologyKind::kIdeal) {
  telemetry::MetricRegistry reg;
  reg.gauge("simspeed/events").set(static_cast<std::int64_t>(events));
  reg.gauge("simspeed/events_per_sec")
      .set(static_cast<std::int64_t>(events_per_sec));
  reg.gauge("simspeed/wall_us").set(static_cast<std::int64_t>(wall_us));
  if (host != nullptr) {
    reg.gauge("prof/push_ns").set(static_cast<std::int64_t>(host->push_ns));
    reg.gauge("prof/pop_ns").set(static_cast<std::int64_t>(host->pop_ns));
    reg.gauge("prof/handle_ns").set(static_cast<std::int64_t>(host->handle_ns));
    reg.gauge("prof/total_ns").set(static_cast<std::int64_t>(host->total_ns));
  }
  const telemetry::Snapshot snap = reg.snapshot();
  // "kernel-heap" keeps the join key of the rows committed while the queue
  // was a binary heap.
  return harness::metrics_report_json("simspeed", workload, "kernel-heap",
                                      cores, makespan, 1.0, &snap, nullptr,
                                      noc::to_string(fabric));
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"events", "storm events to process (default 1000000)"},
       {"inflight", "storm in-flight event population (default 1048576)"},
       {"components", "storm component count (default 256)"},
       {"seed", "storm rng seed (default 42)"},
       {"workloads",
        "comma-separated Table II workloads to time through run_trace; a "
        "\":<topology>\" suffix puts that NoC on the manager and host "
        "fabrics (default sparselu,h264dec-8x8-10f,gaussian-250:mesh; "
        "\"none\" to skip)"},
       {"cores", "worker cores for the workload runs (default 32)"},
       {"prof",
        "profiled re-run per row: fold prof/*_ns host-time gauges into "
        "--json records (report-only perfdiff watches) and print self-time "
        "tables"},
       {"max-overhead-pct",
        "fail (exit 1) if the attached-profiler wall-clock overhead on the "
        "gaussian-250 smoke exceeds this percentage (min-of-3 walls per "
        "side; default 0 = report only, requires --prof)"},
       {"json", "write BENCH_simspeed.json records to this file"}});

  const auto n_events = static_cast<std::uint64_t>(flags.get_int("events", 1000000));
  const auto inflight = static_cast<std::uint64_t>(flags.get_int("inflight", 1048576));
  const auto ncomp = static_cast<std::uint32_t>(flags.get_int("components", 256));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto cores = static_cast<std::uint32_t>(flags.get_int("cores", 32));
  const bool prof_mode = flags.get_bool("prof", false);

  std::printf("simspeed: DES kernel throughput\n\n");
  const std::string storm_label = "storm-" + std::to_string(n_events);
  harness::BenchRecordWriter out;

  // --- synthetic storm, run twice ---
  const StormResult storm = run_storm(n_events, inflight, ncomp, seed);
  const StormResult again = run_storm(n_events, inflight, ncomp, seed);
  if (storm.makespan != again.makespan || storm.events != again.events ||
      storm.checksum != again.checksum) {
    std::fprintf(stderr,
                 "FATAL: the storm did not repeat (makespan %lld vs %lld, "
                 "events %llu vs %llu, checksum %016llx vs %016llx)\n",
                 static_cast<long long>(storm.makespan),
                 static_cast<long long>(again.makespan),
                 static_cast<unsigned long long>(storm.events),
                 static_cast<unsigned long long>(again.events),
                 static_cast<unsigned long long>(storm.checksum),
                 static_cast<unsigned long long>(again.checksum));
    return 2;
  }

  TextTable t({"workload", "events", "wall (ms)", "events/sec"});
  auto add = [&t](const std::string& wl, std::uint64_t ev, double wall_us,
                  double eps) {
    t.add_row({wl, TextTable::integer(static_cast<long long>(ev)),
               TextTable::num(wall_us * 1e-3, 2),
               TextTable::integer(static_cast<long long>(eps))});
  };
  add(storm_label, storm.events, storm.wall_us, storm.events_per_sec);

  // Profiled re-runs attribute the measured wall time; the *measurement*
  // rows above stay detached so attribution never taxes the headline
  // events/sec numbers.
  HostProfile storm_host;
  if (prof_mode) {
    telemetry::ProfileData d;
    run_storm(n_events, inflight, ncomp, seed, &d);
    storm_host = host_profile_from(d);
    std::printf("--- %s self-time (profiled re-run) ---\n%s\n",
                storm_label.c_str(), telemetry::profile_top_table(d, 10).c_str());
  }
  out.append(record(storm_label, 1, storm.makespan, storm.events, storm.wall_us,
                    storm.events_per_sec, prof_mode ? &storm_host : nullptr));

  // --- Table II workloads through the full stack, each run twice ---
  std::vector<std::string> selected = split_csv(
      flags.get("workloads", "sparselu,h264dec-8x8-10f,gaussian-250:mesh"));
  if (selected.size() == 1 && selected[0] == "none") selected.clear();
  for (const std::string& label : selected) {
    const std::size_t colon = label.find(':');
    const std::string name = label.substr(0, colon);
    noc::TopologyKind fabric = noc::TopologyKind::kIdeal;
    if (colon != std::string::npos &&
        !noc::parse_topology(label.substr(colon + 1), &fabric)) {
      std::fprintf(stderr, "unknown topology in: %s\n", label.c_str());
      return 2;
    }
    if (!workloads::is_workload(name)) {
      std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
      return 2;
    }
    const Trace tr = workloads::make_workload(name);
    const TraceResult r = run_workload(tr, cores, fabric);
    const TraceResult r2 = run_workload(tr, cores, fabric);
    if (r.makespan != r2.makespan || r.events != r2.events) {
      std::fprintf(stderr, "FATAL: %s did not repeat\n", label.c_str());
      return 2;
    }
    add(label, r.events, r.wall_us, r.events_per_sec);
    HostProfile host;
    if (prof_mode) {
      telemetry::ProfileData d;
      run_workload(tr, cores, fabric, &d);
      host = host_profile_from(d);
      std::printf("--- %s self-time (profiled re-run) ---\n%s\n",
                  label.c_str(), telemetry::profile_top_table(d, 10).c_str());
    }
    out.append(record(name, cores, r.makespan, r.events, r.wall_us,
                      r.events_per_sec, prof_mode ? &host : nullptr, fabric));
  }

  t.print();
  std::printf("\nstorm determinism check: makespan %lld, checksum %016llx — "
              "identical across two runs (%llu in-flight)\n",
              static_cast<long long>(storm.makespan),
              static_cast<unsigned long long>(storm.checksum),
              static_cast<unsigned long long>(inflight));

  int rc = 0;
  // Attached-overhead smoke: the profiler's whole value proposition is that
  // leaving it attached is cheap. Min-of-3 walls per side on the fig9
  // workload (gaussian-250, full Nexus# stack) filters scheduler noise —
  // the *minimum* wall is the least-perturbed run each side achieved.
  const double max_overhead = flags.get_double("max-overhead-pct", 0.0);
  if (prof_mode) {
    const Trace smoke = workloads::make_workload("gaussian-250");
    double detached_us = 0.0, attached_us = 0.0;
    for (int i = 0; i < 3; ++i) {
      const double d = run_workload(smoke, 8, noc::TopologyKind::kIdeal).wall_us;
      telemetry::ProfileData unused;
      const double a =
          run_workload(smoke, 8, noc::TopologyKind::kIdeal, &unused).wall_us;
      if (detached_us == 0.0 || d < detached_us) detached_us = d;
      if (attached_us == 0.0 || a < attached_us) attached_us = a;
    }
    const double overhead_pct =
        detached_us > 0.0 ? (attached_us - detached_us) / detached_us * 100.0
                          : 0.0;
    std::printf("profiler overhead smoke (gaussian-250, min of 3): "
                "detached %.2f ms, attached %.2f ms, overhead %.1f%%\n",
                detached_us * 1e-3, attached_us * 1e-3, overhead_pct);
    if (max_overhead > 0.0 && overhead_pct > max_overhead) {
      std::fprintf(stderr, "FAIL: profiler overhead %.1f%% > allowed %.1f%%\n",
                   overhead_pct, max_overhead);
      rc = 1;
    }
  }
  if (flags.has("json") && !out.write(flags.get("json", ""))) rc = 2;
  return rc;
}
