// The NoC experiments (topology, placement) and the beyond-paper
// co-management study.
#include <cstdio>

#include "bench.hpp"
#include "nexus/noc/placement.hpp"
#include "nexus/runtime/multi_app.hpp"

namespace nexus::bench {
namespace {

double speedup(Tick base, Tick makespan) {
  return static_cast<double>(base) / static_cast<double>(makespan);
}

// Ideal crossbar, ring, 2D mesh and 2D torus on both the manager NoC and the
// host NoC: distance and multi-flit link contention make the non-ideal
// makespans an upper bound on the crossbar, and the gap is the tax that
// physically distributing the task graph units pays.
Grid topology_grid(const Flags& f) {
  const bool quick = f.get_bool("quick", false);
  return {.workloads = {quick ? "h264dec-8x8-10f" : "h264dec-4x4-10f"},
          .fabrics = {noc::TopologyKind::kIdeal, noc::TopologyKind::kRing,
                      noc::TopologyKind::kMesh, noc::TopologyKind::kTorus},
          .managers = managers({"nexus#-6TG"}),
          .cores = quick ? std::vector<std::uint32_t>{8, 32}
                         : std::vector<std::uint32_t>{8, 32, 128}};
}

int topology(Run& run) {
  for (const std::string& w : run.grid.workloads) {
    std::printf("Ablation: interconnect topology (%s, Nexus# 6 TG, NoC on "
                "manager + host)\n\n",
                w.c_str());
  }
  std::vector<harness::Series> series;
  TextTable contention(
      {"topology", "cores", "noc msgs", "mean hops", "blocked", "stall (us)"});
  run.each([&](const Cell& c, const RunReport& rep, double speedup) {
    if (series.empty() || series.back().label != rep.topology)
      series.push_back({rep.topology, {}});
    harness::SweepPoint& p = series.back().points.emplace_back();
    p.cores = c.cores;
    p.makespan = rep.result.makespan;
    p.speedup = speedup;
    // Every column sums the manager NoC and the host NoC (the latter only
    // registers under a real topology).
    const telemetry::Snapshot& snap = *rep.metrics;
    const auto both = [&snap](const std::string& m) {
      return snap.counter_at("nexus#/noc/" + m) + snap.counter_at("runtime/noc/" + m);
    };
    std::uint64_t hop_sum = 0;
    std::uint64_t hop_count = 0;
    for (const char* net : {"nexus#/noc/hops", "runtime/noc/hops"}) {
      if (const telemetry::MetricValue* hops = snap.find(net)) {
        hop_sum += hops->hist.sum;
        hop_count += hops->hist.count;
      }
    }
    contention.add_row(
        {rep.topology, std::to_string(c.cores),
         TextTable::integer(static_cast<long long>(both("messages"))),
         TextTable::num(hop_count > 0 ? static_cast<double>(hop_sum) /
                                            static_cast<double>(hop_count)
                                      : 0.0,
                        2),
         TextTable::integer(static_cast<long long>(both("blocked_flits"))),
         TextTable::num(static_cast<double>(both("stall_ps")) * 1e-6, 1)});
  });
  harness::print_series("speedup vs ideal-crossbar baseline", run.grid.cores, series,
                        run.csv);
  std::printf("\nInterconnect pressure (manager + host NoCs):\n");
  run.print(contention);
  return 0;
}

// Where the IO tile, the task graph units and the arbiter sit on a mesh or
// torus: a default-layout probe run measures the traffic matrix, the
// placement search (noc/placement.hpp) optimizes the tile assignment, and
// both layouts are rerun. The wire-dominated fabric (8 router+wire cycles a
// hop, 2 a flit) makes placement matter; 16 and 32 cores sit at the
// workload's saturation knee, where the makespan is critical-path-bound.
Grid placement_grid(const Flags& f) {
  const bool quick = f.get_bool("quick", false);
  Grid g{.workloads = {quick ? "h264dec-8x8-10f" : "h264dec-4x4-10f"},
         .fabrics = {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus},
         .managers = managers({"nexus#-8TG"}),
         .cores = {16, 32},
         .host_fabric = false};
  g.managers.front().sharp.noc.hop_cycles = 8;
  g.managers.front().sharp.noc.link_cycles = 2;
  return g;
}

/// Each cell writes its default-layout row, then its optimized-layout row.
std::vector<RowKey> placement_rows(const Grid& g, const Flags&) {
  std::vector<RowKey> rows;
  for (Cell c : g.cells()) {
    rows.push_back(key_of(c));
    c.spec.sharp.noc.placement_name = "optimized";
    rows.push_back(key_of(c));
  }
  return rows;
}

int placement(Run& run) {
  const Grid& g = run.grid;
  TextTable table({"topology", "cores", "default (ms)", "optimized (ms)",
                   "gain", "hop-cost", "opt hop-cost"});
  for (const std::string& w : g.workloads) {
    const Trace& tr = run.trace(w);
    std::printf("Ablation: NoC tile placement (%s, Nexus# %u TG, manager NoC "
                "mesh/torus, host ideal)\n\n",
                w.c_str(), g.managers.front().sharp.num_task_graphs);
    for (const noc::TopologyKind kind : g.fabrics) {
      for (const ManagerSpec& m : g.managers) {
        // The traffic matrix of one default-layout run at the largest core
        // count; it is recorded before the tile mapping, so the measurement
        // layout cannot bias it.
        const Cell probe_cell = g.at(w, kind, m, g.cores.back());
        NexusSharp probe(probe_cell.spec.sharp);
        run_trace(tr, probe, RuntimeConfig{.workers = probe_cell.cores});
        const std::uint32_t endpoints = sharp_noc_endpoints(m.sharp.num_task_graphs);
        const noc::PlacementResult placed = noc::optimize_placement(
            noc::Topology(kind, endpoints),
            noc::TrafficMatrix::from_network(endpoints, probe.network().traffic()));
        for (const std::uint32_t n : g.cores) {
          Cell layouts[2] = {g.at(w, kind, m, n), g.at(w, kind, m, n)};
          layouts[1].spec.sharp.noc.placement = placed.assignment;
          layouts[1].spec.sharp.noc.placement_name = "optimized";
          Tick makespans[2] = {0, 0};
          for (int v = 0; v < 2; ++v) {
            const RunReport rep = harness::run_once_report(
                tr, layouts[v].spec, n, layouts[v].rc, true, run.timeline());
            makespans[v] = rep.result.makespan;
            run.record(key_of(layouts[v]), rep.result.makespan,
                       rep.result.speedup_vs(run.baseline(w)), rep.metrics.get(),
                       rep.timeline.get());
          }
          run.gate(makespans[1] < makespans[0]);
          table.add_row({noc::to_string(kind), std::to_string(n),
                         TextTable::num(to_ms(makespans[0]), 2),
                         TextTable::num(to_ms(makespans[1]), 2),
                         TextTable::num((1.0 - static_cast<double>(makespans[1]) /
                                                   static_cast<double>(makespans[0])) *
                                            100.0,
                                        2) +
                             "%",
                         TextTable::integer(static_cast<long long>(placed.initial_cost)),
                         TextTable::integer(static_cast<long long>(placed.cost))});
        }
      }
    }
  }
  std::printf("Default (identity) vs optimized tile placement:\n");
  run.print(table);
  return 0;
}

// Section VI: "Since multiple applications use different memory spaces
// inherently, Nexus# can manage them at the same time" — two applications
// share one Nexus# and one worker pool, against running them back to back.
Grid multiapp_grid(const Flags& f) {
  const bool quick = f.get_bool("quick", false);
  return {.workloads = {quick ? "h264dec-8x8-10f" : "h264dec-2x2-10f",
                        quick ? "gaussian-250" : "rot-cc"},
          .managers = managers({"nexus#-6TG"}),
          .cores = {64}};
}

int multiapp(Run& run) {
  const Grid& g = run.grid;
  if (g.workloads.size() != 2) {
    std::fprintf(stderr, "multiapp co-runs exactly two workloads\n");
    return 2;
  }
  const Trace a = run.trace(g.workloads[0]);  // a copy: b replaces the cache
  const Trace& b = run.trace(g.workloads[1]);
  const ManagerSpec& spec = g.managers.front();
  const std::uint32_t cores = g.cores.front();
  std::printf("Co-managing two applications on one Nexus# (6 TG @ 55.56 MHz), "
              "%u cores\n\n", cores);
  // Back to back: each app gets the full machine, one after the other.
  const Tick t_a = harness::run_once(a, spec, cores);
  const Tick t_b = harness::run_once(b, spec, cores);
  const Tick serial = t_a + t_b;
  // Co-run: shared manager, shared workers, disjoint address windows.
  NexusSharp co(spec.sharp);
  const MultiAppResult r = run_multi_app({&a, &b}, co, RuntimeConfig{.workers = cores});
  const bool drained = co.sim_tasks_live() == 0;
  run.gate(drained);

  TextTable t({"schedule", "makespan ms", "throughput gain"});
  t.add_row({a.name() + " alone", TextTable::num(to_ms(t_a), 1), ""});
  t.add_row({b.name() + " alone", TextTable::num(to_ms(t_b), 1), ""});
  t.add_row({"back-to-back", TextTable::num(to_ms(serial), 1), "1.00x"});
  t.add_row({"co-managed", TextTable::num(to_ms(r.makespan), 1),
             TextTable::num(speedup(serial, r.makespan), 2) + "x"});
  run.print(t);
  std::printf("\nper-app completion under co-management: %s %.1f ms, %s %.1f ms\n",
              a.name().c_str(), to_ms(r.app_completion[0]), b.name().c_str(),
              to_ms(r.app_completion[1]));
  std::printf("utilization: %.0f%%; gather state drained: %s\n",
              100.0 * r.utilization, drained ? "yes" : "NO");
  return 0;
}

}  // namespace

std::vector<Experiment> ablation_experiments() {
  return {
      {.name = "topology", .artefact = "ablation: NoC topology",
       .grid = topology_grid, .body = topology, .bench = "ablation_topology",
       .record_flags = "--quick --timeline"},
      {.name = "placement", .artefact = "ablation: NoC tile placement",
       .grid = placement_grid, .body = placement,
       .gate = "the optimized layout beats the default on every row",
       .bench = "ablation_placement", .record_flags = "--quick --timeline",
       .rows = placement_rows},
      {.name = "multiapp", .artefact = "Section VI: two co-managed applications",
       .grid = multiapp_grid, .body = multiapp,
       .gate = "the co-run drains the gather state"},
  };
}

}  // namespace nexus::bench
