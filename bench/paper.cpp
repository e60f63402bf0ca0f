// The paper's artefacts: the Section IV-E micro-benchmark, Tables I-IV and
// Figs. 7-9, each printed next to the paper's numbers where it has them.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "bench.hpp"
#include "nexus/cost/fpga_model.hpp"
#include "nexus/task/trace_stats.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::bench {
namespace {

using harness::Series;

struct Table2Row {
  const char* name;
  std::uint64_t tasks;
  double total_ms;
  double avg_us;
  const char* deps;
};

constexpr Table2Row kTable2[] = {
    {"c-ray", 1200, 7381, 6151, "1"},
    {"rot-cc", 16262, 8150, 501, "1"},
    {"sparselu", 54814, 38128, 696, "1-3"},
    {"streamcluster", 652776, 237908, 364, "1-3"},
    {"h264dec-1x1-10f", 139961, 640, 4.6, "2-6"},
    {"h264dec-2x2-10f", 35921, 550, 15.3, "2-6"},
    {"h264dec-4x4-10f", 9333, 519, 55.6, "2-6"},
    {"h264dec-8x8-10f", 2686, 510, 189.9, "2-6"},
};

/// Table IV: maximum speedup under Nanos, Nexus++ and Nexus# 6 TGs.
struct Table4Row {
  const char* name;
  double speedup[3];
};

constexpr Table4Row kTable4[] = {
    {"c-ray", {31.4, 60.4, 194.0}},
    {"rot-cc", {24.5, 254.0, 254.0}},
    {"sparselu", {24.5, 84.9, 94.4}},
    {"streamcluster", {4.9, 7.9, 39.6}},
    {"h264dec-1x1-10f", {0.7, 2.2, 6.9}},
    {"h264dec-2x2-10f", {1.4, 2.7, 7.7}},
    {"h264dec-4x4-10f", {3.6, 2.7, 6.8}},
    {"h264dec-8x8-10f", {3.9, 2.5, 4.7}},
};

/// The no-overhead reference curve of Figs. 7 and 8.
Series no_overhead(Run& run, const std::string& w) {
  Series s = harness::sweep(run.trace(w), ManagerSpec::ideal(), run.grid.cores,
                            run.baseline(w));
  s.label = "no-overhead";
  return s;
}

/// Run the grid (recording each row under --json) and hand `figure` each
/// workload's series, one per grid manager in grid order, once the
/// workload's last cell has run: its trace and baseline are still cached.
void each_figure(Run& run, const std::function<void(const std::string&,
                                                    std::vector<Series>)>& figure) {
  const Grid& g = run.grid;
  std::vector<Series> series;
  std::size_t rows = 0;
  run.each([&](const Cell& c, const RunReport& rep, double speedup) {
    if (series.empty())
      for (const ManagerSpec& m : g.managers) series.push_back({m.label, {}});
    const std::size_t m = rows / g.cores.size() % g.managers.size();
    series[m].points.push_back({c.cores, rep.result.makespan, speedup});
    if (++rows % (g.managers.size() * g.cores.size()) == 0)
      figure(c.workload, std::exchange(series, {}));
  });
}

int micro(Run& run) {
  Trace tr("micro-5x2");
  for (int i = 0; i < 5; ++i) {
    ParamList p;
    p.push_back({0x1000 + 0x100 * static_cast<Addr>(i), Dir::kIn});
    p.push_back({0x1040 + 0x100 * static_cast<Addr>(i), Dir::kOut});
    tr.submit(0, us(1), p);
  }
  tr.taskwait();
  // Cycles from the first submission packet to the last ready write-back.
  constexpr double kMhz = 100.0;
  const auto cycles = [&tr](const ManagerSpec& m) {
    return TextTable::integer(
        ClockDomain(kMhz).cycles_in(harness::run_once(tr, m, 5) - us(1)));
  };

  std::printf("Section IV-E micro-benchmark: 5 independent tasks, 2 params each\n"
              "(cycles from first packet to last ready write-back)\n\n");
  TextTable t({"design", "cycles", "reference"});
  for (const std::uint32_t tgs : {1u, 2u, 4u}) {
    t.add_row({"nexus# " + std::to_string(tgs) + " TG",
               cycles(ManagerSpec::nexussharp(tgs, kMhz)),
               tgs == 1 ? "paper: 78" : ""});
  }
  t.add_row({"nexus++", cycles(ManagerSpec::nexuspp_default()), ""});
  t.add_row({"task superscalar [19]", "172", "from the literature"});
  run.print(t);
  std::printf("\n(Their prototype clocks at 150 MHz vs our 100 MHz test clock —\n"
              "the cycle-count comparison is the one the paper makes.)\n");
  return 0;
}

int table1(Run& run) {
  std::printf("Table I: device utilization on the ZC706 "
              "(totals: 437200 regs, 218600 LUTs, 545 BRAMs)\n\n");
  TextTable t({"Configuration", "Registers", "LUTs", "BlockRAMs",
               "Max(Test) Freq MHz", "regs(abs)", "luts(abs)", "source"});
  for (const cost::UtilizationRow& r : cost::table1_rows()) {
    t.add_row({r.config, TextTable::num(r.regs_pct, 0) + "%",
               TextTable::num(r.luts_pct, 0) + "%",
               TextTable::num(r.bram_pct, 0) + "%",
               TextTable::num(r.fmax_mhz, 2) + " (" + TextTable::num(r.test_mhz, 2) + ")",
               TextTable::integer(static_cast<long long>(r.regs_abs())),
               TextTable::integer(static_cast<long long>(r.luts_abs())),
               r.measured ? "paper" : "model"});
  }
  run.print(t);
  std::printf("\nComparison (Section IV-E): Task Superscalar [19,20] uses "
              "29138 registers / 110729 LUTs,\ncomparable to the 8-TG design "
              "(19350/127290) and ~6x the 1-TG configuration.\n");
  std::printf("Largest configuration that still fits the device: %u task graphs\n",
              cost::max_feasible_task_graphs());
  return 0;
}

Grid table2_grid(const Flags&) {
  Grid g{.managers = managers({"nexus#-6TG"}), .cores = {32}};
  for (const Table2Row& row : kTable2) g.workloads.push_back(row.name);
  return g;
}

int table2(Run& run) {
  std::printf("Table II: benchmark durations (traces regenerated synthetically; "
              "see docs/BENCHMARKS.md)\n\n");
  TextTable t({"benchmark", "# tasks", "paper", "total work (ms)", "paper",
               "avg task (us)", "paper", "# deps", "paper"});
  for (const Table2Row& row : kTable2) {
    const TraceStats s = compute_stats(run.trace(row.name));
    const std::string deps = std::to_string(s.min_params) +
                             (s.min_params == s.max_params
                                  ? ""
                                  : "-" + std::to_string(s.max_params));
    t.add_row({row.name, TextTable::integer(static_cast<long long>(s.num_tasks)),
               TextTable::integer(static_cast<long long>(row.tasks)),
               TextTable::num(s.total_work_ms(), 0), TextTable::num(row.total_ms, 0),
               TextTable::num(s.avg_task_us(), 1), TextTable::num(row.avg_us, 1),
               deps, row.deps});
  }
  run.print(t);
  if (!run.json()) return 0;
  // The records: each workload measured under Nexus# 6 TGs with telemetry.
  run.each([](const Cell& c, const RunReport& rep, double speedup) {
    std::printf("ran %-18s %8.2f ms makespan, %6.2fx speedup at %u cores\n",
                c.workload.c_str(), to_ms(rep.result.makespan), speedup, c.cores);
  });
  std::printf("\n");
  return 0;
}

int table3(Run& run) {
  std::printf("Table III: Gaussian elimination tasks for different matrix sizes\n\n");
  TextTable t({"Matrix dim", "# tasks", "paper", "avg FLOPs", "paper",
               "avg us", "paper"});
  struct PaperRow {
    int n;
    std::uint64_t tasks;
    double flops, usec;
  };
  const PaperRow paper[] = {{250, 31374, 167, 0.084},
                            {500, 125249, 334, 0.167},
                            {1000, 500499, 667, 0.334},
                            {3000, 4501499, 2012, 1.006}};
  for (const auto& row : paper) {
    const auto n = static_cast<std::uint64_t>(row.n);
    const double avg_flops = static_cast<double>(workloads::gaussian_total_flops(n)) /
                             static_cast<double>(workloads::gaussian_task_count(n));
    double avg_us_measured = avg_flops / 2000.0;
    std::uint64_t tasks_measured = workloads::gaussian_task_count(n);
    // Generate the actual trace and measure, rather than trusting algebra;
    // --quick keeps the closed form for the 4.5M-task n=3000 trace.
    if (!(row.n == 3000 && run.quick)) {
      const TraceStats s = compute_stats(run.trace("gaussian-" + std::to_string(n)));
      tasks_measured = s.num_tasks;
      avg_us_measured = s.avg_task_us();
    }
    t.add_row({TextTable::integer(row.n),
               TextTable::integer(static_cast<long long>(tasks_measured)),
               TextTable::integer(static_cast<long long>(row.tasks)),
               TextTable::num(avg_flops, 1), TextTable::num(row.flops, 0),
               TextTable::num(avg_us_measured, 3), TextTable::num(row.usec, 3)});
  }
  run.print(t);
  std::printf("\nNote: the n=3000 average FLOPs from the closed form is 2000.3; the\n"
              "paper reports 2012 (0.6%% difference), see docs/BENCHMARKS.md.\n");
  return 0;
}

Grid table4_grid(const Flags& f) {
  // The hardware managers plateau by 256 cores, Nanos by the 32 of the
  // paper's test machine.
  Grid g{.managers = managers({"nanos", "nexus++", "nexus#-6TG"}),
         .cores = {32, 128, 256}};
  for (const Table4Row& row : kTable4)
    if (!(f.get_bool("quick", false) && std::string(row.name) == "streamcluster"))
      g.workloads.push_back(row.name);
  return g;
}

int table4(Run& run) {
  const std::vector<std::uint32_t> nanos_cores{8, 16, 32};
  std::printf("Table IV: maximum scalability using the different task graph "
              "managers\n(measured vs paper)\n\n");
  TextTable t({"Benchmark", "Nanos", "paper", "Nexus++", "paper", "Nexus#",
               "paper"});
  for (const Table4Row& row : kTable4) {
    const std::vector<std::string>& ws = run.grid.workloads;
    if (std::find(ws.begin(), ws.end(), row.name) == ws.end()) continue;
    std::vector<std::string> cells{row.name};
    for (std::size_t i = 0; i < run.grid.managers.size(); ++i) {
      const ManagerSpec& m = run.grid.managers[i];
      const Series s = harness::sweep(
          run.trace(row.name), m,
          m.kind == ManagerSpec::Kind::kNanos ? nanos_cores : run.grid.cores,
          run.baseline(row.name));
      cells.push_back(TextTable::num(s.max_speedup(), 1));
      cells.push_back(TextTable::num(row.speedup[i], 1));
    }
    t.add_row(cells);
  }
  run.print(t);
  return 0;
}

Grid fig7_grid(const Flags& f) {
  if (f.get_bool("quick", false)) {
    // The TG-scaling claim at its endpoints: 1 TG vs the paper's best 6, at
    // their Table I test frequencies.
    return {.workloads = {"h264dec-1x1-10f", "h264dec-8x8-10f"},
            .managers = managers({"nexus#-1TG", "nexus#-6TG"}),
            .cores = {8, 32}};
  }
  // (a) every TG count at 100 MHz, (b) at its Table I test frequency: the
  // 1 and 2 TG designs test at 100 MHz, so their runs serve both panels.
  return {.workloads = {"h264dec-1x1-10f", "h264dec-2x2-10f", "h264dec-4x4-10f",
                        "h264dec-8x8-10f"},
          .managers = managers({"nexus#-1TG@100.00MHz", "nexus#-2TG@100.00MHz",
                                "nexus#-4TG@100.00MHz", "nexus#-6TG@100.00MHz",
                                "nexus#-8TG@100.00MHz", "nexus#-4TG", "nexus#-6TG",
                                "nexus#-8TG"}),
          .cores = harness::paper_cores_256()};
}

int fig7(Run& run) {
  const std::vector<ManagerSpec>& ms = run.grid.managers;
  const auto at_test_mhz = [](const ManagerSpec& m) {
    return m.sharp.freq_mhz == cost::nexussharp_row(m.sharp.num_task_graphs).test_mhz;
  };
  // Panel (a) only shows something panel (b) lacks when a design is clocked
  // off its test frequency.
  const bool fixed_panel = !std::all_of(ms.begin(), ms.end(), at_test_mhz);
  each_figure(run, [&](const std::string& w, std::vector<Series> tgs) {
    for (const bool fixed_100mhz : {true, false}) {
      if (fixed_100mhz && !fixed_panel) continue;
      std::vector<Series> series{no_overhead(run, w)};
      for (std::size_t i = 0; i < ms.size(); ++i)
        if (fixed_100mhz ? ms[i].sharp.freq_mhz == 100.0 : at_test_mhz(ms[i]))
          series.push_back(tgs[i]);
      char title[128];
      std::snprintf(title, sizeof title, "Fig. 7(%c): %s speedup, Nexus# %s",
                    fixed_100mhz ? 'a' : 'b', w.c_str(),
                    fixed_100mhz ? "at 100 MHz" : "at Table I test frequencies");
      harness::print_series(title, run.grid.cores, series, run.csv);
    }
  });
  return 0;
}

Grid fig8_grid(const Flags& f) {
  const bool quick = f.get_bool("quick", false);
  Grid g{.workloads = {"c-ray", "rot-cc", "sparselu", "h264dec-1x1-10f",
                       "h264dec-8x8-10f"},
         .managers = managers({"nexus++", "nexus#-6TG"}),
         .cores = {8, 32}};
  if (!quick) {
    g.workloads = {"c-ray", "rot-cc", "sparselu", "streamcluster",
                   "h264dec-1x1-10f", "h264dec-2x2-10f", "h264dec-4x4-10f",
                   "h264dec-8x8-10f"};
    g.cores = harness::paper_cores_256();
  }
  return g;
}

int fig8(Run& run) {
  std::vector<std::uint32_t> nanos_cores;
  for (const std::uint32_t c : run.grid.cores)
    if (c <= 32) nanos_cores.push_back(c);
  each_figure(run, [&](const std::string& w, std::vector<Series> hw) {
    std::vector<Series> series{no_overhead(run, w),
                               harness::sweep(run.trace(w), ManagerSpec::nanos_default(),
                                              nanos_cores, run.baseline(w))};
    for (Series& s : hw) series.push_back(std::move(s));
    harness::print_series("Fig. 8: " + w, run.grid.cores, series, run.csv);
    std::printf("max speedups: ");
    for (const Series& s : series)
      std::printf("%s=%.1f  ", s.label.c_str(), s.max_speedup());
    std::printf("\n");
  });
  return 0;
}

Grid fig9_grid(const Flags& f) {
  const bool quick = f.get_bool("quick", false);
  Grid g{.managers = managers({"nexus++", "nexus#-1TG@100MHz", "nexus#-2TG@100MHz"}),
         .nexuspp_baseline = true};
  g.workloads = {"gaussian-250", "gaussian-500", "gaussian-1000", "gaussian-3000"};
  g.cores = harness::paper_cores_64();
  if (quick) {
    g.workloads = {"gaussian-250", "gaussian-1000"};
    g.cores = {8, 64};
  }
  return g;
}

int fig9(Run& run) {
  each_figure(run, [&run](const std::string& w, std::vector<Series> series) {
    const std::string title =
        "Fig. 9: gaussian elimination, matrix " + w.substr(w.find('-') + 1);
    harness::print_series(title, run.grid.cores, series, run.csv);
  });
  return 0;
}

}  // namespace

std::vector<Experiment> paper_experiments() {
  return {
      {.name = "micro",
       .artefact = "Section IV-E micro-benchmark: cycles to insert 5 tasks",
       .body = micro},
      {.name = "table1", .artefact = "Table I: device utilization on the ZC706",
       .body = table1},
      {.name = "table2", .artefact = "Table II: benchmark task counts and durations",
       .grid = table2_grid, .body = table2, .bench = "table2", .record_flags = "",
       .trace = Cell{"sparselu", manager("nexus#-6TG"), 32}},
      {.name = "table3", .artefact = "Table III: Gaussian elimination tasks",
       .body = table3},
      {.name = "table4", .artefact = "Table IV: maximum speedup per benchmark",
       .grid = table4_grid, .body = table4},
      {.name = "fig7", .artefact = "Fig. 7: h264dec speedup vs task graphs",
       .grid = fig7_grid, .body = fig7, .bench = "fig7",
       .record_flags = "--quick --timeline",
       .trace = Cell{"h264dec-8x8-10f", manager("nexus#-6TG"), 32}},
      {.name = "fig8", .artefact = "Fig. 8: Starbench and h264dec speedups",
       .grid = fig8_grid, .body = fig8, .bench = "fig8",
       .record_flags = "--quick --timeline"},
      {.name = "fig9", .artefact = "Fig. 9: Gaussian elimination speedup",
       .grid = fig9_grid, .body = fig9, .bench = "fig9",
       .record_flags = "--quick --timeline",
       .trace = Cell{"gaussian-250", manager("nexus#-2TG@100MHz"), 8}},
  };
}

}  // namespace nexus::bench
