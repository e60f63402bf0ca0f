// perfbench entry point: set-up, measured passes, validation, and with
// --trace 1 the registry-attached and profiled passes. The last line of
// standard output is the result object; everything else (rows, quantiles,
// missing metrics, spans, provenance) also lands in a results file.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "nexus/sim/event_queue.hpp"
#include "nexus/telemetry/profile_export.hpp"
#include "nexus/telemetry/registry.hpp"

namespace perfbench {
namespace {

/// Cold set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string results_dir = ".bench_build/results";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--results") a->results_dir = v;
    else if (k == "--commit") a->commit = v;
    else if (k == "--source-digest") a->source_digest = v;
    else return false;
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// A double with every digit; null for a missing value.
std::string num(double v) {
  if (std::isnan(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct RowStats {
  RowRun reference;               ///< first measured pass
  std::vector<double> host_s;     ///< one per measured pass
  std::vector<double> scaled_s;   ///< host_s rescaled by the speed probe
  std::string error;              ///< first failed check, empty when valid
};

std::string provenance_json(const Args& a) {
  const char* env = std::getenv("NEXUS_SIM_QUEUE");
  std::string out = "{";
  out += "\"workload\": " + quote(a.workload);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"seconds\": " + num(a.seconds);
  out += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  out += ", \"git_commit\": " + quote(a.commit);
  out += ", \"source_digest\": " + quote(a.source_digest);
  out += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + quote(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"queue_kind\": " + quote(nexus::to_string(nexus::default_queue_kind()));
  out += ", \"NEXUS_SIM_QUEUE\": " + quote(env != nullptr ? env : "unset");
  return out + "}";
}

/// One set-up in a forked child, so process-wide caches inside the
/// generators (sparselu memoises its construction search) start cold, as
/// they do in a user's fresh process. False if the child failed.
bool forked_setup(const Workload& w, std::uint64_t seed, SetupTimes* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    SpanLog log;
    SetupTimes t;
    const Inputs in = generate_inputs(w, seed, log, &t);
    const Managers m = make_managers(w, log, &t.make_manager_s);
    const double v[3] = {t.gen_s, t.baseline_s, t.make_manager_s};
    const bool sent = write(fds[1], v, sizeof v) == static_cast<ssize_t>(sizeof v);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double v[3] = {};
  std::size_t got = 0;
  while (got < sizeof v) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(v) + got, sizeof v - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!reaped || got != sizeof v || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return false;
  *out = SetupTimes{v[0], v[1], v[2]};
  return true;
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream f(p);
  f << text;
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", p.c_str());
}

int run(const Args& a) {
  Workload w;
  if (!define_workload(a.workload, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:",
                 a.workload.c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const std::string provenance = provenance_json(a);
  std::printf("provenance %s\n", provenance.c_str());
  SpanLog log;
  SpeedScale scale;
  const std::size_t nrows = w.rows.size();

  // --- set-up, repeated cold; the median total is setup_s ------------------
  // All but the last run in forked children; the last one, in this process,
  // builds the inputs the passes replay.
  std::vector<double> setup_total, gen_s, baseline_s, manager_s;
  Inputs in;
  Managers first_managers;
  for (int k = 0; k < kSetups; ++k) {
    SetupTimes t;
    scale.begin();
    if (k + 1 < kSetups) {
      Timed span(log, "setup#" + std::to_string(k) + " (forked)");
      if (!forked_setup(w, a.seed, &t)) {
        std::fprintf(stderr, "perfbench: forked set-up #%d failed\n", k);
        return 1;
      }
    } else {
      Timed span(log, "setup#" + std::to_string(k));
      in = generate_inputs(w, a.seed, log, &t);
      first_managers = make_managers(w, log, &t.make_manager_s);
    }
    const double f = scale.factor();
    setup_total.push_back(t.total() * f);
    gen_s.push_back(t.gen_s * f);
    baseline_s.push_back(t.baseline_s * f);
    manager_s.push_back(t.make_manager_s * f);
  }

  // --- measured passes: nothing attached, repeated for --seconds -----------
  std::vector<RowStats> rows(nrows);
  const auto t0 = std::chrono::steady_clock::now();
  int passes = 0;
  while (passes == 0 ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() <
             a.seconds) {
    Timed span(log, "measured#" + std::to_string(passes));
    double unused = 0.0;
    Managers m = passes == 0 ? std::move(first_managers) : make_managers(w, log, &unused);
    scale.begin();
    for (std::size_t r = 0; r < nrows; ++r) {
      RowRun run = run_row(w.rows[r], in, *m[r], w.rows[r].config, log);
      rows[r].host_s.push_back(run.host_s);
      rows[r].scaled_s.push_back(run.host_s * scale.factor());
      if (passes == 0) rows[r].reference = std::move(run);
      else if (!run.same_simulation(rows[r].reference) && rows[r].error.empty())
        rows[r].error = "measured pass " + std::to_string(passes) + " differs from pass 0";
    }
    ++passes;
  }

  // --- validation pass ------------------------------------------------------
  std::vector<Tick> light, heavy;
  double validate_s = 0.0;
  {
    Timed span(log, "validation");
    for (std::size_t r = 0; r < nrows; ++r) {
      RowCheck c = validate_row(w.rows[r], in, rows[r].reference, log);
      validate_s += c.validate_s;
      if (!c.ok && rows[r].error.empty()) rows[r].error = c.error;
      light.insert(light.end(), c.light.begin(), c.light.end());
      heavy.insert(heavy.end(), c.heavy.begin(), c.heavy.end());
    }
  }

  // --- end-to-end results ---------------------------------------------------
  double tasks = 0.0;
  double median_s = 0.0;      // scaled
  double raw_median_s = 0.0;  // as measured
  double log_speedup = 0.0;
  double run_s[3] = {0.0, 0.0, 0.0};
  bool ran[3] = {false, false, false};
  std::uint64_t failed = 0;
  std::printf("%-58s %9s %16s %9s %10s  %s\n", "row", "tasks", "makespan_ps",
              "speedup", "host_s", "check");
  for (std::size_t r = 0; r < nrows; ++r) {
    const RowRun& ref = rows[r].reference;
    const double m = median(rows[r].scaled_s);
    raw_median_s += median(rows[r].host_s);
    const double speedup =
        static_cast<double>(in.baseline(w.rows[r])) / static_cast<double>(ref.makespan);
    tasks += static_cast<double>(ref.tasks);
    median_s += m;
    log_speedup += std::log(speedup);
    const auto d = static_cast<int>(w.rows[r].driver);
    run_s[d] += m;
    ran[d] = true;
    if (!rows[r].error.empty()) ++failed;
    std::printf("%-58s %9llu %16lld %9.4f %10.4f  %s\n", w.rows[r].label.c_str(),
                static_cast<unsigned long long>(ref.tasks),
                static_cast<long long>(ref.makespan), speedup, m,
                rows[r].error.empty() ? "ok" : rows[r].error.c_str());
  }
  std::printf("%d measured pass(es), %d set-up(s); host_s above is probe-scaled\n", passes,
              kSetups);
  std::printf("unscaled sim_tasks_per_s %s, median probe factor %s\n",
              num(tasks / raw_median_s).c_str(), num(median(scale.factors())).c_str());

  std::vector<Metric> e2e;
  e2e.push_back({"sim_tasks_per_s", tasks / median_s, "1/s", ""});
  e2e.push_back({"setup_s", median(setup_total), "s", ""});
  e2e.push_back({"peak_rss_mb", 0.0, "MB", ""});  // read last, below
  e2e.push_back({"sim_speedup_geomean", std::exp(log_speedup / static_cast<double>(nrows)),
                 "x", ""});
  for (auto& [cls, samples] : {std::pair<const char*, std::vector<Tick>*>{"light", &light},
                              std::pair<const char*, std::vector<Tick>*>{"heavy", &heavy}}) {
    for (const auto& [tag, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 std::pair<const char*, double>{"p999", 0.999}}) {
      const Quantile x = exact_quantile(*samples, q);
      const std::string name = std::string(cls) + "_" + tag + "_ps";
      std::printf("latency %-14s %16s ps_sim  (n=%llu, beyond=%llu)\n", name.c_str(),
                  num(x.value).c_str(), static_cast<unsigned long long>(x.n),
                  static_cast<unsigned long long>(x.beyond));
      e2e.push_back({name, x.value, "ps_sim", ""});
    }
  }
  e2e.push_back({"valid_frac",
                 1.0 - static_cast<double>(failed) / static_cast<double>(nrows), "frac", ""});

  // --- per-layer passes (--trace 1) -----------------------------------------
  std::vector<Metric> layers;
  nexus::telemetry::ProfileData profile;
  if (a.trace) {
    LayerTally tally;
    tally.setup.gen_s = median(gen_s);
    tally.setup.baseline_s = median(baseline_s);
    tally.setup.make_manager_s = median(manager_s);
    for (int d = 0; d < 3; ++d) {
      tally.run_s[d] = run_s[d];
      tally.ran[d] = ran[d];
    }
    tally.validate_s = validate_s;

    {
      Timed span(log, "registry");
      for (std::size_t r = 0; r < nrows; ++r) {
        double unused = 0.0;
        const Row& row = w.rows[r];
        const auto mgr = build_manager(row, log, &unused);
        nexus::telemetry::MetricRegistry reg;
        nexus::RuntimeConfig rc = row.config;
        rc.metrics = &reg;
        const RowRun run = run_row(row, in, *mgr, rc, log);
        if (!run.same_simulation(rows[r].reference) && rows[r].error.empty())
          rows[r].error = "registry-attached pass differs from measured pass";
        tally.add_registry_row(row, run, reg.snapshot());
      }
    }
    {
      Timed span(log, "profiled");
      nexus::telemetry::Profiler prof;
      const auto run_node = prof.node(nexus::telemetry::Profiler::kRoot, "run");
      double traced_s = 0.0;
      for (std::size_t r = 0; r < nrows; ++r) {
        double unused = 0.0;
        const Row& row = w.rows[r];
        const auto mgr = build_manager(row, log, &unused);
        nexus::RuntimeConfig rc = row.config;
        RowRun run;
        scale.begin();
        if (row.driver == DriverKind::kTrace) {
          rc.profiler = &prof;
          rc.profile_parent = run_node;
          nexus::telemetry::ProfScope scope(&prof, run_node);
          run = run_row(row, in, *mgr, rc, log);
        } else {
          // run_multi_app and run_tenants ignore RuntimeConfig::profiler.
          run = run_row(row, in, *mgr, rc, log);
        }
        traced_s += run.host_s * scale.factor();
        if (!run.same_simulation(rows[r].reference) && rows[r].error.empty())
          rows[r].error = "profiled pass differs from measured pass";
      }
      profile = prof.freeze();
      tally.set_profile(profile);
      tally.traced_overhead_x = traced_s / median_s;
    }
    layers = tally.metrics();
    failed = 0;
    for (const RowStats& r : rows) failed += r.error.empty() ? 0 : 1;
    for (const Metric& m : layers) {
      if (m.missing.empty())
        std::printf("layer %-36s %22s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
      else
        std::printf("missing %s: %s\n", m.name.c_str(), m.missing.c_str());
    }
  }
  e2e[2].value = peak_rss_mb();

  // --- results file ---------------------------------------------------------
  std::filesystem::create_directories(a.results_dir);
  const std::string stem = a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0");
  const std::filesystem::path dir(a.results_dir);
  std::string doc = "{\"provenance\": " + provenance + ",\n\"rows\": [";
  for (std::size_t r = 0; r < nrows; ++r) {
    const RowRun& ref = rows[r].reference;
    doc += std::string(r ? ",\n" : "\n") + "{\"label\": " + quote(w.rows[r].label) +
           ", \"driver\": " + quote(driver_call(w.rows[r].driver)) +
           ", \"tasks\": " + std::to_string(ref.tasks) +
           ", \"makespan_ps\": " + std::to_string(ref.makespan) +
           ", \"baseline_ps\": " + std::to_string(in.baseline(w.rows[r])) +
           ", \"events\": " + (ref.has_events ? std::to_string(ref.events) : "null") +
           ", \"host_s\": [";
    for (std::size_t p = 0; p < rows[r].host_s.size(); ++p)
      doc += (p ? ", " : "") + num(rows[r].host_s[p]);
    doc += "], \"scaled_s\": [";
    for (std::size_t p = 0; p < rows[r].scaled_s.size(); ++p)
      doc += (p ? ", " : "") + num(rows[r].scaled_s[p]);
    doc += "], \"error\": " + (rows[r].error.empty() ? "null" : quote(rows[r].error)) + "}";
  }
  doc += "],\n\"probe_factors\": [";
  for (std::size_t i = 0; i < scale.factors().size(); ++i)
    doc += (i ? ", " : "") + num(scale.factors()[i]);
  doc += "],\n\"metrics\": [";
  bool first_metric = true;
  for (const std::vector<Metric>* set : {&e2e, &layers}) {
    for (const Metric& m : *set) {
      doc += std::string(first_metric ? "\n" : ",\n") + "{\"name\": " + quote(m.name) +
             ", \"value\": " + num(m.value) + ", \"unit\": " + quote(m.unit) +
             (m.missing.empty() ? "" : ", \"missing\": " + quote(m.missing)) + "}";
      first_metric = false;
    }
  }
  doc += "],\n\"spans\": [";
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    doc += std::string(i ? ",\n" : "\n") + "{\"name\": " + quote(spans[i].name) +
           ", \"start_ns\": " + std::to_string(spans[i].start_ns) +
           ", \"end_ns\": " + std::to_string(spans[i].end_ns) +
           ", \"parent\": " + std::to_string(spans[i].parent) + "}";
  }
  doc += "]}\n";
  write_file(dir / (stem + ".json"), doc);
  if (a.trace) {
    write_file(dir / (stem + "-profile.json"), nexus::telemetry::profile_json(profile));
    write_file(dir / (stem + ".collapsed"), nexus::telemetry::profile_collapsed(profile));
  }
  std::printf("results %s\n", (dir / (stem + ".json")).c_str());

  // --- the result line ------------------------------------------------------
  // Every value in it is a finite number; a metric without one is a bug in
  // the benchmark, so the run fails without a result line.
  std::vector<const Metric*> reported;
  if (a.trace) {
    for (const std::string& name : result_layer_names()) {
      const auto it = std::find_if(layers.begin(), layers.end(),
                                   [&name](const Metric& m) { return m.name == name; });
      reported.push_back(it == layers.end() ? nullptr : &*it);
    }
  } else {
    for (const Metric& m : e2e) reported.push_back(&m);
  }
  std::string line = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(nrows) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric* m = reported[i];
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "perfbench: metric %s has no value on workload %s\n",
                   m == nullptr ? result_layer_names()[i].c_str() : m->name.c_str(),
                   a.workload.c_str());
      return 1;
    }
    line += std::string(first ? "" : ", ") + quote(m->name) + ": {\"value\": " +
            num(m->value) + ", \"unit\": " + quote(m->unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                 [--results DIR] [--commit SHA]\n"
                 "                 [--source-digest HEX]\n");
    return 2;
  }
  return perfbench::run(a);
}
