#include "nexus/harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "nexus/common/table.hpp"
#include "nexus/cost/fpga_model.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/list_scheduler.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace_export.hpp"
#include "nexus/telemetry/writers.hpp"

namespace nexus::harness {

std::vector<std::uint32_t> paper_cores_256() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

std::vector<std::uint32_t> paper_cores_64() { return {1, 2, 4, 8, 16, 32, 64}; }

ManagerSpec ManagerSpec::ideal() {
  ManagerSpec s;
  s.kind = Kind::kIdeal;
  s.label = "ideal";
  return s;
}

ManagerSpec ManagerSpec::nanos_default() {
  ManagerSpec s;
  s.kind = Kind::kNanos;
  s.label = "nanos";
  return s;
}

ManagerSpec ManagerSpec::nexuspp_default() {
  ManagerSpec s;
  s.kind = Kind::kNexusPP;
  s.label = "nexus++";
  return s;
}

ManagerSpec ManagerSpec::nexussharp(std::uint32_t tgs, double mhz_override) {
  ManagerSpec s;
  s.kind = Kind::kNexusSharp;
  s.sharp.num_task_graphs = tgs;
  s.sharp.freq_mhz =
      mhz_override > 0.0 ? mhz_override : cost::nexussharp_row(tgs).test_mhz;
  char label[64];
  std::snprintf(label, sizeof label, "nexus#-%uTG@%.2fMHz", tgs, s.sharp.freq_mhz);
  s.label = label;
  return s;
}

double Series::max_speedup() const {
  double best = 0.0;
  for (const auto& p : points) best = std::max(best, p.speedup);
  return best;
}

Tick ideal_baseline(const Trace& trace) { return trace.total_work(); }

std::string topology_label(const ManagerSpec& spec, const RuntimeConfig& base) {
  noc::TopologyKind mgr = noc::TopologyKind::kIdeal;
  if (spec.kind == ManagerSpec::Kind::kNexusSharp) mgr = spec.sharp.noc.kind;
  if (spec.kind == ManagerSpec::Kind::kNexusPP) mgr = spec.npp.noc.kind;
  const noc::TopologyKind host = base.noc.kind;
  // Both axes are part of the join key: a mesh-manager/ring-host run must
  // not collide with a mesh-manager/ideal-host run in perfdiff. The common
  // cases (matching kinds, or only one axis configured) keep plain labels.
  if (mgr == host) return noc::to_string(mgr);
  if (mgr == noc::TopologyKind::kIdeal)
    return std::string("host-") + noc::to_string(host);
  if (host == noc::TopologyKind::kIdeal) return noc::to_string(mgr);
  return std::string(noc::to_string(mgr)) + "+host-" + noc::to_string(host);
}

std::string placement_label(const ManagerSpec& spec, const RuntimeConfig& base) {
  std::string mgr = "default";
  if (spec.kind == ManagerSpec::Kind::kNexusSharp)
    mgr = spec.sharp.noc.placement_name;
  if (spec.kind == ManagerSpec::Kind::kNexusPP) mgr = spec.npp.noc.placement_name;
  const std::string& host = base.noc.placement_name;
  if (mgr == host) return mgr;
  if (mgr == "default") return "host-" + host;
  if (host == "default") return mgr;
  return mgr + "+host-" + host;
}

std::unique_ptr<TaskManagerModel> make_manager(const ManagerSpec& spec) {
  switch (spec.kind) {
    case ManagerSpec::Kind::kIdeal:
      return std::make_unique<IdealManager>();
    case ManagerSpec::Kind::kNanos:
      return std::make_unique<NanosModel>(spec.nanos);
    case ManagerSpec::Kind::kNexusPP:
      return std::make_unique<NexusPP>(spec.npp);
    case ManagerSpec::Kind::kNexusSharp:
      return std::make_unique<NexusSharp>(spec.sharp);
  }
  NEXUS_ASSERT_MSG(false, "unknown manager kind");
  return nullptr;
}

Tick run_once(const Trace& trace, const ManagerSpec& spec, std::uint32_t cores,
              const RuntimeConfig& base) {
  // The fast list scheduler computes the identical makespan (tested against
  // the DES + IdealManager pair) without event overhead — unless a host NoC
  // or open-loop arrivals are configured, which need the DES.
  if (spec.kind == ManagerSpec::Kind::kIdeal && base.noc.ideal() &&
      base.open_loop == nullptr)
    return list_schedule_makespan(trace, cores);
  return run_once_report(trace, spec, cores, base, /*collect_metrics=*/false)
      .result.makespan;
}

RunReport run_once_report(const Trace& trace, const ManagerSpec& spec,
                          std::uint32_t cores, const RuntimeConfig& base,
                          bool collect_metrics,
                          const telemetry::TimelineConfig* timeline,
                          bool collect_trace,
                          telemetry::MetricRegistry* registry) {
  RuntimeConfig rc = base;
  rc.workers = cores;
  telemetry::MetricRegistry local_reg;
  telemetry::MetricRegistry& reg = registry != nullptr ? *registry : local_reg;
  if (collect_metrics || timeline != nullptr) rc.metrics = &reg;
  std::unique_ptr<telemetry::TimelineRecorder> rec;
  if (timeline != nullptr) {
    rec = std::make_unique<telemetry::TimelineRecorder>(reg, *timeline);
    rc.timeline = rec.get();
  }
  std::unique_ptr<telemetry::TraceRecorder> spans;
  if (collect_trace) {
    spans = std::make_unique<telemetry::TraceRecorder>();
    rc.trace = spans.get();
  }
  // Per-run profile node: everything the driver attributes nests under it,
  // so a multi-run caller keeps each run's time separate.
  std::uint32_t run_node = 0;
  if (rc.profiler != nullptr) {
    run_node = rc.profiler->node(rc.profile_parent, "run");
    rc.profile_parent = run_node;
  }
  RunReport rep;
  rep.topology = topology_label(spec, base);
  rep.placement = placement_label(spec, base);
  telemetry::ProfScope prof_scope(rc.profiler, run_node);
  const std::unique_ptr<TaskManagerModel> mgr = make_manager(spec);
  rep.result = run_trace(trace, *mgr, rc);
  if (rc.metrics != nullptr)
    rep.metrics = std::make_shared<telemetry::Snapshot>(reg.snapshot());
  if (rec != nullptr)
    rep.timeline = std::make_shared<telemetry::Timeline>(rec->freeze());
  if (spans != nullptr)
    rep.trace = std::make_shared<telemetry::TraceData>(spans->freeze());
  return rep;
}

bool write_chrome_trace(const Trace& trace, const ManagerSpec& spec,
                        std::uint32_t cores, const RuntimeConfig& base,
                        const std::string& path) {
  const RunReport rep = run_once_report(trace, spec, cores, base,
                                        /*collect_metrics=*/false,
                                        /*timeline=*/nullptr,
                                        /*collect_trace=*/true);
  if (!telemetry::write_text_file(path,
                                  telemetry::chrome_trace_json(*rep.trace))) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote Chrome trace (%zu task spans, %zu NoC messages, "
              "%.3f ms makespan) to %s\n",
              rep.trace->tasks.size(), rep.trace->messages.size(),
              to_ms(rep.result.makespan), path.c_str());
  return true;
}

Series sweep(const Trace& trace, const ManagerSpec& spec,
             const std::vector<std::uint32_t>& cores, Tick baseline,
             const RuntimeConfig& base) {
  Series s{spec.label, {}};
  for (const std::uint32_t c : cores) {
    const Tick makespan = run_once(trace, spec, c, base);
    s.points.push_back(
        {c, makespan,
         makespan > 0 ? static_cast<double>(baseline) / static_cast<double>(makespan)
                      : 0.0});
  }
  return s;
}

telemetry::TimelineConfig bench_timeline_config() {
  telemetry::TimelineConfig cfg;
  cfg.interval_ps = us(100.0);
  cfg.max_points = 192;
  cfg.select = {
      // Throughput: task in/finish flows through each manager front-end.
      "nexus#/tasks_in", "nexus#/finishes", "nexus++/tasks_in",
      "nexus++/ready_out",
      // Contention: arbiter conflict bursts, dep-count parks, table stalls
      // ('**' so the per-TGU nexus#/tg<i>/table/stalls paths match too).
      "nexus#/arbiter/conflicts", "nexus#/arbiter/retries",
      "nexus#/arbiter/dep_counts/parked", "**/table/stalls",
      // Occupancy transients: queue depths and pool fill.
      "nexus#/arbiter/ready_q_depth", "nexus#/pool/occupancy",
      "runtime/ready_q_depth",
      // Interconnect pressure: message/flit flow, in-flight depth and
      // stalls on every NoC (nexus#/noc, nexus++/noc and runtime/noc).
      "**/noc/messages", "**/noc/flits", "**/noc/in_flight",
      "**/noc/stall_ps", "**/noc/blocked_flits",
      // Routing balance over time and host dispatch activity.
      "nexus#/tg*/routed", "runtime/dispatches", "sim/events",
      // Open-loop serving flow (zero-rate no-ops on closed-loop runs).
      "runtime/offered", "runtime/accepted",
  };
  return cfg;
}

std::string metrics_report_json(std::string_view bench, std::string_view workload,
                                std::string_view manager, std::uint32_t cores,
                                Tick makespan, double speedup,
                                const telemetry::Snapshot* metrics,
                                const telemetry::Timeline* timeline,
                                std::string_view topology,
                                std::string_view placement) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("schema", 4);
  w.kv("bench", bench);
  w.kv("workload", workload);
  w.kv("manager", manager);
  // Optional: absent means "ideal"/"default", so older records stay
  // joinable.
  if (!topology.empty() && topology != "ideal") w.kv("topology", topology);
  if (!placement.empty() && placement != "default")
    w.kv("placement", placement);
  w.kv("cores", cores);
  w.kv("makespan", makespan);
  w.kv("speedup", speedup);
  w.key("metrics");
  if (metrics != nullptr) {
    telemetry::append_snapshot(w, *metrics);
  } else {
    w.begin_object().end_object();
  }
  if (timeline != nullptr) {
    w.key("timeline");
    telemetry::append_timeline(w, *timeline);
  }
  w.end_object();
  return w.str();
}

void BenchRecordWriter::append(std::string_view record_json) {
  doc_ += count_ == 0 ? "\n" : ",\n";
  doc_ += record_json;
  ++count_;
}

bool BenchRecordWriter::write(const std::string& path) const {
  const std::string doc = doc_ + "\n]\n";
  if (!telemetry::write_text_file(path, doc)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %zu record(s) to %s\n", count_, path.c_str());
  return true;
}

void print_series(const std::string& title, const std::vector<std::uint32_t>& cores,
                  const std::vector<Series>& series, bool csv) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header{"cores"};
  for (const auto& s : series) header.push_back(s.label);
  TextTable t(header);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    std::vector<std::string> row{std::to_string(cores[i])};
    for (const auto& s : series) {
      // Series may cover a prefix of the core axis (Nanos stops at 32).
      std::string cell = "-";
      for (const auto& p : s.points)
        if (p.cores == cores[i]) cell = TextTable::num(p.speedup, 2);
      row.push_back(cell);
    }
    t.add_row(row);
  }
  t.print();
  if (csv) std::fputs(t.csv().c_str(), stdout);
}

}  // namespace nexus::harness
