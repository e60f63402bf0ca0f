// The driver machinery every experiment shares, and the experiment table
// assembled from the parts each bench/*.cpp file declares.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "nexus/telemetry/profile_export.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::bench {

const std::map<std::string, std::string>& flag_spec() {
  static const std::map<std::string, std::string> spec = {
      {"quick", "reduced grid (the smoke and record configuration)"},
      {"json", "write the experiment's BENCH records to this file"},
      {"timeline", "attach sampled sim-time timelines to --json records"},
      {"csv", "also print every table as CSV"},
      {"trace", "write a Chrome trace of the experiment's trace run"},
      {"prof", "write the host self-profile of every grid cell to this file"},
      {"workloads", "comma-separated workloads replacing the grid's"},
      {"cores", "comma-separated core counts replacing the grid's"}};
  return spec;
}

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = [] {
    std::vector<Experiment> all;
    for (const auto part :
         {paper_experiments, ablation_experiments, open_loop_experiments}) {
      for (Experiment& e : part()) all.push_back(std::move(e));
    }
    return all;
  }();
  return table;
}

ManagerSpec manager(const std::string& label) {
  ManagerSpec m;
  const bool known = harness::parse_manager(label, &m);
  NEXUS_ASSERT_MSG(known, label.c_str());
  return m;
}

std::vector<ManagerSpec> managers(std::initializer_list<const char*> labels) {
  std::vector<ManagerSpec> out;
  for (const char* l : labels) out.push_back(manager(l));
  return out;
}

Cell Grid::at(const std::string& workload, noc::TopologyKind fabric,
              const ManagerSpec& m, std::uint32_t n) const {
  Cell c{workload, m, n, rc};
  if (m.kind == ManagerSpec::Kind::kNexusSharp) c.spec.sharp.noc.kind = fabric;
  if (m.kind == ManagerSpec::Kind::kNexusPP) c.spec.npp.noc.kind = fabric;
  if (host_fabric) c.rc.noc.kind = fabric;
  return c;
}

std::vector<Cell> Grid::cells() const {
  std::vector<Cell> out;
  for (const std::string& w : workloads) {
    const std::size_t colon = w.find(':');
    std::vector<noc::TopologyKind> fabs = fabrics;
    if (colon != std::string::npos) {
      fabs.resize(1);
      const bool known = noc::parse_topology(w.substr(colon + 1), fabs.data());
      NEXUS_ASSERT_MSG(known, w.c_str());  // Run::finish rejects it first
    }
    for (const noc::TopologyKind f : fabs)
      for (const ManagerSpec& m : managers)
        for (const std::uint32_t n : cores)
          out.push_back(at(w.substr(0, colon), f, m, n));
  }
  return out;
}

RowKey key_of(const Cell& c) {
  return {c.workload, c.spec.label, harness::topology_label(c.spec, c.rc),
          harness::placement_label(c.spec, c.rc), c.cores};
}

Grid make_grid(const Experiment& e, const Flags& flags) {
  Grid g = e.grid != nullptr ? e.grid(flags) : Grid{};
  g.workloads = flags.get_list("workloads", g.workloads);
  if (flags.has("cores")) g.cores.clear();
  for (const std::int64_t n : flags.get_int_list("cores", {}))
    g.cores.push_back(static_cast<std::uint32_t>(n));
  return g;
}

std::vector<RowKey> record_rows(const Experiment& e, const Flags& flags) {
  const Grid g = make_grid(e, flags);
  if (e.rows != nullptr) return e.rows(g, flags);
  std::vector<RowKey> rows;
  for (const Cell& c : g.cells()) rows.push_back(key_of(c));
  return rows;
}

Run::Run(const Experiment& e, const Flags& f)
    : exp(e), flags(f), quick(f.get_bool("quick", false)),
      csv(f.get_bool("csv", false)), grid(make_grid(e, f)),
      timeline_cfg_(harness::bench_timeline_config()) {}

const Trace& Run::trace(const std::string& workload) {
  if (workload != trace_name_) {
    trace_ = workloads::make_workload(workload.substr(0, workload.find(':')));
    trace_name_ = workload;
    std::fprintf(stderr, "[%s] %s: %zu tasks\n", exp.name, workload.c_str(),
                 trace_.num_tasks());
  }
  return trace_;
}

Tick Run::baseline(const std::string& workload) {
  if (workload != base_name_) {
    base_ = grid.nexuspp_baseline
                ? harness::run_once(trace(workload), ManagerSpec::nexuspp_default(), 1)
                : harness::ideal_baseline(trace(workload));
    base_name_ = workload;
  }
  return base_;
}

const telemetry::TimelineConfig* Run::timeline() const {
  return flags.get_bool("timeline", false) ? &timeline_cfg_ : nullptr;
}

void Run::each(const std::function<void(const Cell&, const RunReport&, double)>& row) {
  for (const Cell& c : grid.cells()) {
    const Tick base = baseline(c.workload);
    const RunReport rep = harness::run_once_report(trace(c.workload), c.spec,
                                                   c.cores, c.rc, true, timeline());
    const double speedup = rep.result.speedup_vs(base);
    record(key_of(c), rep.result.makespan, speedup, rep.metrics.get(),
           rep.timeline.get());
    std::fprintf(stderr, "[%s] %-18s %-22s %-5s %3u cores: %8.2f ms\n", exp.name,
                 c.workload.c_str(), c.spec.label.c_str(), rep.topology.c_str(),
                 c.cores, to_ms(rep.result.makespan));
    if (row) row(c, rep, speedup);
  }
}

void Run::record(const RowKey& k, Tick makespan, double speedup,
                 const telemetry::Snapshot* metrics,
                 const telemetry::Timeline* timeline) {
  if (!json()) return;
  recorded_.push_back(k);
  out_.append(harness::metrics_report_json(exp.bench, k.workload, k.manager,
                                           k.cores, makespan, speedup, metrics,
                                           timeline, k.topology, k.placement));
}

void Run::print(const TextTable& t) const {
  t.print();
  if (csv) std::fputs(t.csv().c_str(), stdout);
}

int Run::finish() {
  if (exp.grid == nullptr && (flags.has("workloads") || flags.has("cores"))) {
    std::fprintf(stderr, "%s has no grid for --workloads/--cores\n", exp.name);
    return 2;
  }
  for (const std::string& w : grid.workloads) {
    const std::size_t colon = w.find(':');
    noc::TopologyKind fabric{};
    if (!workloads::is_workload(w.substr(0, colon)) ||
        (colon != std::string::npos &&
         !noc::parse_topology(w.substr(colon + 1), &fabric))) {
      std::fprintf(stderr, "unknown workload or fabric: %s\n", w.c_str());
      return 2;
    }
  }
  const std::vector<std::int64_t> cores = flags.get_int_list("cores", {1});
  if (cores.empty() || std::any_of(cores.begin(), cores.end(), [](std::int64_t n) {
        return n < 1 || n > 65536;
      })) {
    std::fprintf(stderr, "--cores needs core counts in 1..65536\n");
    return 2;
  }
  if (json() && exp.bench == nullptr) {
    std::fprintf(stderr, "%s writes no records\n", exp.name);
    return 2;
  }
  if (flags.has("trace")) {
    if (!exp.trace) {
      std::fprintf(stderr, "%s exports no trace\n", exp.name);
      return 2;
    }
    // The declared trace run, re-gridded so a --workloads override keeps
    // its :fabric suffix.
    Grid g = grid;
    if (!flags.has("workloads") || g.workloads.empty())
      g.workloads = {exp.trace->workload};
    g.workloads.resize(1);
    g.managers = {exp.trace->spec};
    g.cores = {flags.has("cores") ? grid.cores.front() : exp.trace->cores};
    const Cell c = g.cells().front();
    return harness::write_chrome_trace(trace(c.workload), c.spec, c.cores, c.rc,
                                       flags.get("trace", ""))
               ? 0
               : 2;
  }
  if (flags.has("prof")) {
    if (exp.grid == nullptr) {
      std::fprintf(stderr, "%s has no grid to profile\n", exp.name);
      return 2;
    }
    return profile(flags.get("prof", "")) ? 0 : 2;
  }
  const int rc = exp.body(*this);
  if (rc != 0) return rc;
  if (exp.gate != nullptr && !(gated_ && gate_held_)) {
    std::fprintf(stderr, "[%s] FAIL: %s\n", exp.name, exp.gate);
    return 1;
  }
  if (!json()) return 0;
  if (recorded_ != record_rows(exp, flags)) {
    std::fprintf(stderr, "[%s] the recorded rows do not follow the grid\n", exp.name);
    return 2;
  }
  return out_.write(flags.get("json", "")) ? 0 : 2;
}

bool Run::profile(const std::string& path) {
  telemetry::JsonWriter json;
  json.begin_array();
  std::string collapsed;
  const std::vector<Cell> cells = grid.cells();
  for (const Cell& c : cells) {
    // A fresh profiler per cell, and a second clock around the run for
    // scripts/validate_profile.py to reconcile the root total against. A
    // detached run of the same cell prices the profiler's own toll.
    telemetry::Profiler prof;
    RuntimeConfig rc = c.rc;
    rc.profiler = &prof;
    const Trace& tr = trace(c.workload);
    RunReport rep;
    const auto timed_ns = [&](const RuntimeConfig& cfg) {
      const auto t0 = std::chrono::steady_clock::now();
      rep = harness::run_once_report(tr, c.spec, c.cores, cfg, false);
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    };
    const std::uint64_t detached_ns = timed_ns(c.rc);
    const std::uint64_t wall_ns = timed_ns(rc);
    const telemetry::ProfileData d = prof.freeze();
    const std::string cell_key = c.workload + "|" + c.spec.label + "|" + rep.topology +
                                 "|c" + std::to_string(c.cores);
    std::printf("=== %s: makespan %.3f ms, host wall %.3f ms "
                "(detached %.3f ms) ===\n%s\n",
                cell_key.c_str(), to_ms(rep.result.makespan),
                static_cast<double>(wall_ns) * 1e-6,
                static_cast<double>(detached_ns) * 1e-6,
                telemetry::profile_top_table(d, 12).c_str());
    json.begin_object();
    json.kv("workload", c.workload);
    json.kv("manager", c.spec.label);
    json.kv("topology", rep.topology);
    json.kv("cores", c.cores);
    json.kv("makespan", rep.result.makespan);
    json.kv("detached_wall_ns", detached_ns);
    json.key("profile");
    telemetry::append_profile(json, d, wall_ns);
    json.end_object();
    // Each stack gets the cell key as its root frame, so one file holds the
    // whole grid without merging distinct cells' frames.
    const std::string stacks = telemetry::profile_collapsed(d);
    for (std::size_t at = 0; at < stacks.size();) {
      const std::size_t nl = stacks.find('\n', at);
      collapsed += cell_key + ";" + stacks.substr(at, nl + 1 - at);
      at = nl + 1;
    }
  }
  json.end_array();
  const std::string stacks_path =
      std::filesystem::path(path).replace_extension(".collapsed").string();
  for (const auto& [file, text] : {std::pair{path, json.str()}, {stacks_path, collapsed}}) {
    if (!telemetry::write_text_file(file, text)) {
      std::fprintf(stderr, "cannot write %s\n", file.c_str());
      return false;
    }
  }
  std::printf("wrote %zu profiled cell(s) to %s and %s\n", cells.size(),
              path.c_str(), stacks_path.c_str());
  return true;
}

}  // namespace nexus::bench
