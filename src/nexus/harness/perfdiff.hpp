// Perf-diff over BENCH_*.json trajectory records: the library behind the
// nexus-perfdiff tool and its tests.
//
// Two record sets are joined on (bench, workload, manager, topology,
// placement, cores) — topology and placement are optional in the record,
// absent means ideal/default. For each pair the comparator checks the
// makespan against a relative tolerance and a
// set of watched per-task rates (conflicts, retries, parks, table stalls by
// default) against their own tolerance, producing a human-readable report
// and a regression verdict — so CI can gate on the bench trajectory instead
// of eyeballing numbers. The simulator is deterministic, which makes tight
// default tolerances practical: identical code must reproduce identical
// records.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nexus/telemetry/json.hpp"
#include "nexus/telemetry/timeline.hpp"

namespace nexus::harness {

/// The newest record schema this comparator understands (the "schema" field
/// written by metrics_report_json). Records without the field are treated as
/// schema 1 (the PR-2 format); anything newer is a hard parse error so
/// future format changes are detected instead of mis-read.
inline constexpr int kBenchRecordSchema = 4;

/// One flattened BENCH_*.json record. Histogram metrics contribute
/// "<path>:count/:sum/:min/:max/:mean" scalar entries (schema 3 adds
/// ":p50/:p95/:p99/:p999"); timeline objects are decoded into `timeline`
/// but only compared when PerfdiffOptions::compare_timelines is set (they
/// describe *when*, not *how much*, so the default diff skips them).
struct BenchRecord {
  int schema = 1;
  std::string bench;
  std::string workload;
  std::string manager;
  /// Interconnect topology; the record field is optional and absent means
  /// "ideal", so pre-NoC baselines still join against ideal candidates.
  std::string topology = "ideal";
  /// Tile placement; optional, absent means the "default" identity layout.
  std::string placement = "default";
  std::int64_t cores = 0;
  std::int64_t makespan = 0;  ///< picoseconds
  double speedup = 0.0;
  /// Flattened scalar metrics, in record order.
  std::vector<std::pair<std::string, double>> metrics;
  /// Decoded sim-time timeline (delta-encoding undone); empty axes when the
  /// record carried none.
  bool has_timeline = false;
  telemetry::Timeline timeline;

  /// Join key for matching baseline and candidate records.
  [[nodiscard]] std::string key() const;

  /// Sum of every metric whose path matches the glob (0 when none match).
  [[nodiscard]] double metric_sum(std::string_view glob) const;

  /// Whether any metric path matches the glob (distinguishes an absent
  /// metric from a present-but-zero one; see WatchedRate::require_both).
  [[nodiscard]] bool has_metric(std::string_view glob) const;

  /// The run's task count ("runtime/tasks" gauge), or 1 when absent, as the
  /// denominator for per-task rates.
  [[nodiscard]] double tasks() const;
};

/// Parse a BENCH_*.json document (a JSON array of records, or one record
/// object). Returns false with a message on malformed input or an unknown
/// schema version.
bool parse_bench_records(std::string_view json_text,
                         std::vector<BenchRecord>* out, std::string* error);

/// A watched per-task rate: sum(metrics matching `numerator`) / tasks.
struct WatchedRate {
  std::string name;       ///< report label, e.g. "conflict_rate"
  std::string numerator;  ///< glob over flattened metric paths
  /// Direction of goodness. false (the default): growth beyond the
  /// tolerance is a regression (overhead counters). true: *shrinkage*
  /// beyond the tolerance is the regression (throughput gauges like
  /// simspeed's events/sec) — growth is always fine.
  bool higher_is_better = false;
  /// Per-rate tolerance override in percent; <= 0 falls back to
  /// PerfdiffOptions::metric_tolerance_pct. Wall-clock-derived rates need a
  /// far wider band than deterministic counters (machine-to-machine churn).
  double tolerance_pct = 0.0;
  /// Divide the metric sum by the run's task count (the per-task overhead
  /// shape). false compares the raw sum — quantile fields and knee gauges
  /// are already absolute values.
  bool per_task = true;
  /// Skip the check unless *both* records carry a matching metric. Quantile
  /// fields only exist on schema-3 records and knee gauges only on serving
  /// rows (host-time fields only on schema-4); metric_sum's 0-for-absent
  /// would otherwise misread an old baseline vs a new candidate as a
  /// was-zero regression.
  bool require_both = false;
  /// Echo the change as an "[info]" line but never count it as a
  /// regression. For fields too noisy to gate on at any tolerance — the
  /// schema-4 host wall-clock attribution (prof/*_ns) varies with the
  /// machine, not the code under test.
  bool report_only = false;
};

/// The default watch list: arbiter conflict/retry rates, dep-count park
/// rate, task-graph-table stall rate (per task, both managers), NoC link
/// stall time and blocked reservations (per task, every network), DES
/// events per task per component kind (driver, io, tg, arbiter, root, npp,
/// noc), plus the DES kernel throughput gauge (simspeed events/sec,
/// higher-is-better at a generous wall-clock tolerance), plus the
/// tail-latency gates — sojourn and serving-latency p50/p99/p999 and the
/// serving knee gauge, all require_both so pre-quantile baselines are
/// skipped, not failed.
std::vector<WatchedRate> default_watched_rates();

struct PerfdiffOptions {
  /// Makespan may grow by at most this percentage before it counts as a
  /// regression (improvements are reported, never failed).
  double makespan_tolerance_pct = 2.0;
  /// A watched rate may grow by at most this percentage (with a small
  /// absolute epsilon so zero-baselines do not flag on rounding noise).
  double metric_tolerance_pct = 10.0;
  std::vector<WatchedRate> watched = default_watched_rates();
  /// Compare the records' sampled timelines point by point (the series are
  /// sim-time-deterministic, so the default per-series tolerance is exact).
  /// A diverging series is reported with the sim-time of its first
  /// divergence — *when* a run went off-trajectory, not just that it did.
  bool compare_timelines = false;
  /// Default per-point tolerance for timeline values, in percent of the
  /// baseline value (0 = exact).
  double timeline_tolerance_pct = 0.0;
  /// Per-series overrides: first glob matching the series path wins.
  std::vector<std::pair<std::string, double>> timeline_tolerances;
  /// Only emit regression/summary lines, not per-record ok lines.
  bool quiet = false;
};

struct PerfdiffResult {
  int compared = 0;     ///< records matched in both sets
  int added = 0;        ///< only in candidate (reported, not failed)
  int removed = 0;      ///< only in baseline (reported, not failed)
  int regressions = 0;  ///< failed makespan or metric checks
  int improvements = 0;
  std::string report;   ///< human-readable, one line per finding

  [[nodiscard]] bool ok() const { return regressions == 0; }
};

/// Compare candidate records against a baseline.
PerfdiffResult perfdiff_compare(const std::vector<BenchRecord>& baseline,
                                const std::vector<BenchRecord>& candidate,
                                const PerfdiffOptions& opts = {});

}  // namespace nexus::harness
