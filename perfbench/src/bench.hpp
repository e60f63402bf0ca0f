// perfbench: the repository benchmark. It drives the simulator only through
// the public functions of its layers (workloads, harness, runtime drivers,
// schedule validation) and times each call from outside. See
// perfbench/README.md for the metrics, the workloads and how to run it.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/runtime/tenancy.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/snapshot.hpp"

namespace perfbench {

using nexus::Tick;

inline constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Spans: one per public call the benchmark makes, kept in memory and written
// out with the results when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at top level
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::int32_t open(std::string name);
  /// Close span `id` (the innermost open one); returns its length in s.
  double close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Scoped span: opens on construction, closes at stop() or destruction.
class Timed {
 public:
  Timed(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~Timed() {
    if (!closed_) stop();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    closed_ = true;
    return log_.close(id_);
  }

 private:
  SpanLog& log_;
  std::int32_t id_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Host-speed calibration. A shared VM's speed can drift by tens of percent
// over tens of seconds (20-40% measured on a 4-core Xeon VM), and whole
// runs move with it. A fixed probe kernel, independent of the code under
// test, runs between measured intervals; each interval is rescaled to the
// probe's nominal speed.
// ---------------------------------------------------------------------------

/// Run the probe once and return its wall time in s: a pending-event heap
/// with random reads and writes over a 32 MiB table, then a branchy integer
/// loop. Memory-bound and compute-bound halves, because neighbours slow
/// the simulator through both; together they tracked its speed better than
/// the memory half alone.
double speed_probe();

/// About the probe's time on a quiet 4-core Xeon VM. Scaled host seconds
/// are seconds at that probe speed.
inline constexpr double kProbeNominalS = 0.025;

/// Rescales measured host seconds by kProbeNominalS over the mean of the
/// probes taken just before and just after each interval.
class SpeedScale {
 public:
  /// Probe now; the next interval starts after this call.
  void begin() { before_ = speed_probe(); }
  /// Call right after the interval; probes again and returns the factor
  /// that rescales its host seconds. The closing probe also opens the
  /// next interval.
  double factor() {
    const double after = speed_probe();
    const double f = kProbeNominalS / (0.5 * (before_ + after));
    before_ = after;
    factors_.push_back(f);
    return f;
  }
  [[nodiscard]] const std::vector<double>& factors() const { return factors_; }

 private:
  double before_ = kProbeNominalS;
  std::vector<double> factors_;
};

// ---------------------------------------------------------------------------
// Workload definitions (workloads.cpp).
// ---------------------------------------------------------------------------

enum class DriverKind : std::uint8_t { kTrace, kMultiApp, kTenants };

/// The runtime entry point a row calls ("run_trace", ...).
const char* driver_call(DriverKind d);

/// One simulated run: a driver, the traces it replays, a manager and a
/// machine.
struct Row {
  std::string label;
  DriverKind driver = DriverKind::kTrace;
  std::vector<std::string> traces;  ///< Inputs::traces keys; empty for kTenants
  nexus::harness::ManagerSpec spec;
  nexus::RuntimeConfig config;      ///< workers and host NoC only

  [[nodiscard]] bool nexuspp() const {
    return spec.kind == nexus::harness::ManagerSpec::Kind::kNexusPP;
  }
};

struct Workload {
  std::uint32_t tenants = 0;      ///< tenant streams to generate (0: none)
  std::uint64_t light_tasks = 0;  ///< tasks per light tenant
  std::vector<Row> rows;
};

std::vector<std::string> workload_names();
bool define_workload(const std::string& name, Workload* out);

/// Everything set-up generates: the inputs every pass replays.
struct Inputs {
  std::map<std::string, nexus::Trace> traces;
  std::map<std::string, Tick> baselines;  ///< ideal single-core makespan
  std::vector<nexus::Trace> tenant_traces;
  std::vector<nexus::TenantStream> streams;  ///< point into tenant_traces
  Tick tenant_baseline = 0;

  /// Ideal single-core makespan of everything `row` replays.
  [[nodiscard]] Tick baseline(const Row& row) const;
};

struct SetupTimes {
  double gen_s = 0.0;           ///< workloads: traces and arrival schedules
  double baseline_s = 0.0;      ///< harness::ideal_baseline per trace
  double make_manager_s = 0.0;  ///< harness::make_manager, one per row
  [[nodiscard]] double total() const { return gen_s + baseline_s + make_manager_s; }
};

using Managers = std::vector<std::unique_ptr<nexus::TaskManagerModel>>;

Inputs generate_inputs(const Workload& w, std::uint64_t seed, SpanLog& log,
                       SetupTimes* times);
/// harness::make_manager for one row, as a span; adds its time to *seconds.
std::unique_ptr<nexus::TaskManagerModel> build_manager(const Row& row, SpanLog& log,
                                                       double* seconds);
Managers make_managers(const Workload& w, SpanLog& log, double* seconds);

// ---------------------------------------------------------------------------
// Passes (passes.cpp).
// ---------------------------------------------------------------------------

/// What one driver call returned: the simulated results the bit-identity
/// check compares, plus the host time of the call.
struct RowRun {
  Tick makespan = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;    ///< DES events; run_trace only
  bool has_events = false;
  double utilization = kMissing;  ///< run_trace and run_multi_app only
  std::vector<nexus::TenantLatency> tenants;  ///< run_tenants only
  double host_s = 0.0;

  /// Same simulated outcome, bit for bit (host time ignored).
  [[nodiscard]] bool same_simulation(const RowRun& o) const;
};

RowRun run_row(const Row& row, const Inputs& in, nexus::TaskManagerModel& mgr,
               const nexus::RuntimeConfig& config, SpanLog& log);

/// Outcome of the validation pass for one row.
struct RowCheck {
  bool ok = true;
  std::string error;        ///< first failure, empty when ok
  std::vector<Tick> light;  ///< latency samples, simulated ps
  std::vector<Tick> heavy;
  double validate_s = 0.0;  ///< time inside validate_schedule
};

/// Re-run `row` with the schedule recorded and every submit and finish
/// observed, then check it against the traces and against `reference`
/// (the measured pass's result for the same row).
RowCheck validate_row(const Row& row, const Inputs& in, const RowRun& reference,
                      SpanLog& log);

// ---------------------------------------------------------------------------
// Metrics (metrics.cpp).
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = kMissing;
  std::string unit;
  std::string missing;  ///< why the value is absent; empty when present
};

/// Per-layer counts and host times gathered over the rows of one workload
/// by the registry-attached pass and the profiled pass.
class LayerTally {
 public:
  void add_registry_row(const Row& row, const RowRun& run,
                        const nexus::telemetry::Snapshot& snap);
  void set_profile(const nexus::telemetry::ProfileData& prof);

  /// Every per-layer metric derivable from the tallies, with host seconds
  /// the caller measured merged in.
  [[nodiscard]] std::vector<Metric> metrics() const;

  // Host-time inputs filled in by the caller.
  SetupTimes setup;
  double run_s[3] = {0.0, 0.0, 0.0};  ///< per DriverKind, measured pass
  bool ran[3] = {false, false, false};
  double validate_s = 0.0;
  double traced_overhead_x = kMissing;

 private:
  bool has_nexuspp_ = false;
  bool has_tenants_ = false;
  std::map<std::string, double> sum_;  ///< named tallies (see metrics.cpp)
  std::map<std::string, double> max_;
  nexus::telemetry::HistogramData queue_wait_;
  std::map<std::string, double> prof_;  ///< profile self ns by node path
};

/// The per-layer metrics every workload supplies, in result-line order:
/// BENCHMARK.json's per_layer list. The others are missing on some
/// workload and appear only in the results file and the printed
/// `layer`/`missing` lines.
const std::vector<std::string>& result_layer_names();

/// Exact nearest-rank quantile of `v` (sorted in place). Returns the value
/// and how many samples lie strictly above it.
struct Quantile {
  double value = kMissing;
  std::uint64_t n = 0;
  std::uint64_t beyond = 0;
};
Quantile exact_quantile(std::vector<Tick>& v, double q);

double median(std::vector<double> v);

}  // namespace perfbench
