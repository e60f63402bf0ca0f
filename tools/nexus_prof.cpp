// nexus-prof: host-side self-profile of the simulator itself.
//
// Runs a workload x manager x topology grid with a telemetry::Profiler
// attached and reports where the simulator's own wall-clock time goes —
// event-queue operations (push/pop), per-Component-type
// handlers, NoC send paths by op kind, and driver dispatch/notify — as a
// top-N self-time table per cell. This is the "where would partitioning
// help" evidence for the parallel-DES roadmap item: the hot node names
// identify the kernel phase worth parallelising before any code moves.
//
// Output modes:
//   (default)         per-cell self-time ranking tables
//   --json=PATH       one JSON array, one object per cell: the grid key,
//                     the run's makespan/wall time, and the full profile
//                     tree (schema'd; scripts/validate_profile.py checks
//                     its reconciliation invariants)
//   --collapsed=PATH  speedscope/FlameGraph collapsed stacks; each cell's
//                     stacks are prefixed with a "wl|manager|topo|cN" root
//                     frame so a multi-cell file stays separable
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/noc/topology.hpp"
#include "nexus/telemetry/profile_export.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/workloads.hpp"

using namespace nexus;
using namespace nexus::harness;

namespace {

/// One profiled run: fresh profiler and registry per cell, the topology
/// applied to both the manager-side and host-side fabrics (like the
/// ablation benches), wall time measured independently of the profiler so
/// the root-reconciliation check is against a second clock.
struct CellResult {
  Tick makespan = 0;
  std::uint64_t wall_ns = 0;
  telemetry::ProfileData profile;
};

CellResult run_cell(const Trace& tr, ManagerSpec spec,
                    noc::TopologyKind topo, std::uint32_t cores) {
  telemetry::Profiler prof;
  RuntimeConfig rc;
  rc.noc.kind = topo;
  rc.profiler = &prof;
  if (spec.kind == ManagerSpec::Kind::kNexusSharp) spec.sharp.noc.kind = topo;
  if (spec.kind == ManagerSpec::Kind::kNexusPP) spec.npp.noc.kind = topo;
  const auto t0 = std::chrono::steady_clock::now();
  const RunReport rep =
      run_once_report(tr, spec, cores, rc, /*collect_metrics=*/false);
  const auto t1 = std::chrono::steady_clock::now();
  CellResult out;
  out.makespan = rep.result.makespan;
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.profile = prof.freeze();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"workloads",
        "comma-separated Table II workload names (default gaussian-250; "
        "see --list)"},
       {"managers",
        "comma-separated managers: ideal, nanos, nexus++, nexus#-<N>TG "
        "(default nexus#-2TG)"},
       {"topologies",
        "comma-separated interconnects: ideal, ring, mesh, torus "
        "(default ideal)"},
       {"cores", "worker cores per run (default 8)"},
       {"top", "rows in the self-time ranking (default 12)"},
       {"json", "write the grid's schema'd profile trees to this file"},
       {"collapsed", "write speedscope collapsed stacks to this file"},
       {"list", "list known workload names and exit"}});

  if (flags.get_bool("list", false)) {
    for (const auto& n : workloads::workload_names())
      std::printf("%s\n", n.c_str());
    return 0;
  }

  const auto cores = static_cast<std::uint32_t>(flags.get_int("cores", 8));
  const auto top_n = static_cast<std::size_t>(flags.get_int("top", 12));
  const std::vector<std::string> wl_names =
      flags.get_list("workloads", {"gaussian-250"});
  const std::vector<std::string> mgr_names =
      flags.get_list("managers", {"nexus#-2TG"});
  const std::vector<std::string> topo_names =
      flags.get_list("topologies", {"ideal"});

  std::vector<ManagerSpec> specs;
  for (const auto& m : mgr_names) {
    ManagerSpec spec;
    if (!parse_manager(m, &spec)) {
      std::fprintf(stderr, "unknown manager: %s\n", m.c_str());
      return 2;
    }
    specs.push_back(std::move(spec));
  }
  std::vector<noc::TopologyKind> topos;
  for (const auto& t : topo_names) {
    noc::TopologyKind k{};
    if (!noc::parse_topology(t, &k)) {
      std::fprintf(stderr, "unknown topology: %s\n", t.c_str());
      return 2;
    }
    topos.push_back(k);
  }
  for (const auto& w : wl_names) {
    if (!workloads::is_workload(w)) {
      std::fprintf(stderr, "unknown workload: %s (see --list)\n", w.c_str());
      return 2;
    }
  }

  telemetry::JsonWriter json;
  json.begin_array();
  std::string collapsed;

  for (const auto& wl : wl_names) {
    const Trace tr = workloads::make_workload(wl);
    for (const ManagerSpec& spec : specs) {
      for (const noc::TopologyKind topo : topos) {
        const CellResult cell = run_cell(tr, spec, topo, cores);
        const std::string cell_key = wl + "|" + spec.label + "|" +
                                     noc::to_string(topo) + "|c" +
                                     std::to_string(cores);

        std::printf("=== %s: makespan %.3f ms, host wall %.3f ms ===\n",
                    cell_key.c_str(), to_ms(cell.makespan),
                    static_cast<double>(cell.wall_ns) * 1e-6);
        std::printf("%s\n",
                    telemetry::profile_top_table(cell.profile, top_n).c_str());

        if (flags.has("json")) {
          json.begin_object();
          json.kv("workload", wl);
          json.kv("manager", spec.label);
          json.kv("topology", noc::to_string(topo));
          json.kv("cores", cores);
          json.kv("makespan", static_cast<std::int64_t>(cell.makespan));
          json.key("profile");
          telemetry::append_profile(json, cell.profile, cell.wall_ns);
          json.end_object();
        }
        if (flags.has("collapsed")) {
          // Prefix every stack with the cell key so one file can hold the
          // whole grid without merging distinct cells' frames.
          const std::string stacks = telemetry::profile_collapsed(cell.profile);
          std::size_t start = 0;
          while (start < stacks.size()) {
            std::size_t nl = stacks.find('\n', start);
            if (nl == std::string::npos) nl = stacks.size();
            collapsed += cell_key + ";" + stacks.substr(start, nl - start) + "\n";
            start = nl + 1;
          }
        }
      }
    }
  }
  json.end_array();

  int rc = 0;
  if (flags.has("json")) {
    const std::string path = flags.get("json", "");
    if (telemetry::write_text_file(path, json.str())) {
      std::printf("wrote profile grid to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      rc = 2;
    }
  }
  if (flags.has("collapsed")) {
    const std::string path = flags.get("collapsed", "");
    if (telemetry::write_text_file(path, collapsed)) {
      std::printf("wrote collapsed stacks to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      rc = 2;
    }
  }
  return rc;
}
