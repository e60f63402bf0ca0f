// nexus-bench: one driver over a declarative table of experiments.
//
// Every paper artefact (Tables I-IV, Figs. 7-9, the Section IV-E
// micro-benchmark) and every ablation is one Experiment: a grid of
// workloads x fabrics x managers x cores, a baseline rule, a body that
// post-processes the grid's rows into the printed tables, an optional
// self-gate and, for the record-writing experiments, the committed
// BENCH_<name>.json file and the flags that regenerate it. The driver
// (Run) owns the flags, trace generation, baseline caching, the record
// writer, timelines, Chrome traces, host profiles and table output once for
// all of them.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nexus/common/flags.hpp"
#include "nexus/common/table.hpp"
#include "nexus/harness/experiment.hpp"

namespace nexus::bench {

using harness::ManagerSpec;
using harness::RunReport;

/// One grid point. The fabric is already applied to the manager NoC and,
/// unless Grid::host_fabric is off, to the host NoC in `rc`.
struct Cell {
  std::string workload;
  ManagerSpec spec;
  std::uint32_t cores = 0;
  RuntimeConfig rc{};
};

/// workloads x fabrics x managers x cores, expanded in that order.
struct Grid {
  /// Workload names; "name:fabric" runs that workload on that fabric only.
  std::vector<std::string> workloads{};
  std::vector<noc::TopologyKind> fabrics{noc::TopologyKind::kIdeal};
  std::vector<ManagerSpec> managers{};
  std::vector<std::uint32_t> cores{};
  RuntimeConfig rc{};
  bool host_fabric = true;  ///< put the fabric on the host NoC as well
  /// Baseline rule: speedups against the single-core Nexus++ run (Fig. 9)
  /// instead of the ideal single-core run.
  bool nexuspp_baseline = false;

  /// One point: `m` with `fabric` applied.
  [[nodiscard]] Cell at(const std::string& workload, noc::TopologyKind fabric,
                        const ManagerSpec& m, std::uint32_t cores) const;
  [[nodiscard]] std::vector<Cell> cells() const;
};

/// The manager behind a label (harness::parse_manager), e.g. "nexus#-6TG".
ManagerSpec manager(const std::string& label);
std::vector<ManagerSpec> managers(std::initializer_list<const char*> labels);

/// A record row's perfdiff join key (the bench field is the experiment's).
struct RowKey {
  std::string workload, manager, topology, placement;
  std::uint32_t cores = 0;
  bool operator==(const RowKey&) const = default;
};
/// The row a plain run of `c` records.
RowKey key_of(const Cell& c);

class Run;

struct Experiment {
  const char* name;
  const char* artefact;  ///< what it reproduces
  /// The grid for these flags (before --workloads/--cores overrides).
  Grid (*grid)(const Flags&) = nullptr;
  int (*body)(Run&) = nullptr;
  /// The property the self-gate checks; the body reports it via Run::gate
  /// and the driver exits 1 when it does not hold.
  const char* gate = nullptr;
  /// Record-writing experiments: the records' "bench" field and the flags
  /// that regenerate the committed BENCH_<name>.json.
  const char* bench = nullptr;
  const char* record_flags = nullptr;
  /// The record rows of a grid, in order; null means one key_of per cell.
  /// The body records the same keys, and a run whose keys differ fails.
  std::vector<RowKey> (*rows)(const Grid&, const Flags&) = nullptr;
  /// The one run --trace exports; --workloads (with its :fabric) and
  /// --cores override it.
  std::optional<Cell> trace{};
};

/// The flags every experiment accepts: name -> help.
const std::map<std::string, std::string>& flag_spec();

/// The experiment table, in listing order.
const std::vector<Experiment>& experiments();

/// The grid `e` runs under `flags`, after the shared overrides.
Grid make_grid(const Experiment& e, const Flags& flags);

/// The record rows `e` writes under `flags`, in file order.
std::vector<RowKey> record_rows(const Experiment& e, const Flags& flags);

/// The driver's view of one experiment invocation.
class Run {
 public:
  Run(const Experiment& e, const Flags& flags);

  const Experiment& exp;
  const Flags& flags;
  const bool quick, csv;
  const Grid grid;

  /// The trace of a workload; the last one generated is cached.
  const Trace& trace(const std::string& workload);
  /// The grid's baseline makespan for a workload (cached likewise).
  Tick baseline(const std::string& workload);
  /// The --timeline config, or null.
  [[nodiscard]] const telemetry::TimelineConfig* timeline() const;
  [[nodiscard]] bool json() const { return flags.has("json"); }

  /// Run every cell of the grid with metrics (and --timeline) attached,
  /// record one row per cell and hand each to `row` with its speedup.
  void each(const std::function<void(const Cell&, const RunReport&, double)>& row =
                {});

  /// Append the record row `key` (a no-op without --json).
  void record(const RowKey& key, Tick makespan, double speedup,
              const telemetry::Snapshot* metrics,
              const telemetry::Timeline* timeline = nullptr);
  /// Report the self-gate's property for one row.
  void gate(bool holds) { gate_held_ = gate_held_ && holds; gated_ = true; }

  /// Print a table, plus its CSV with --csv.
  void print(const TextTable& t) const;

  /// Check the flags, run the body, then check the gate and the record
  /// keys against the grid and write the record. --trace and --prof run
  /// instead of the body.
  int finish();

 private:
  /// --prof: run every grid cell once with a fresh profiler, print its
  /// self-time ranking, and write the cells' profile trees to `path` and
  /// their cell-keyed collapsed stacks beside it (extension .collapsed).
  bool profile(const std::string& path);

  std::string trace_name_, base_name_;
  Trace trace_;
  Tick base_ = 0;
  harness::BenchRecordWriter out_;
  telemetry::TimelineConfig timeline_cfg_;
  std::vector<RowKey> recorded_;
  bool gate_held_ = true, gated_ = false;
};

// The table's parts, next to the grids and bodies they name.
std::vector<Experiment> paper_experiments();
std::vector<Experiment> ablation_experiments();
std::vector<Experiment> open_loop_experiments();

}  // namespace nexus::bench
