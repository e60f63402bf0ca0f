// Perf-diff over BENCH_*.json trajectory records: the library behind the
// nexus-perfdiff tool and its tests.
//
// The simulator is deterministic, so one rule gates a change: each
// candidate record must equal the baseline record at the same position in
// every deterministic field — its join key, makespan, speedup, every
// flattened metric and its sampled timeline, with no exception: records
// carry no host wall-clock field. A change that moves a simulated number
// must regenerate the committed records and say so.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nexus::harness {

/// The record schema this comparator gates (the "schema" field written by
/// metrics_report_json). A newer schema is a parse error, so future format
/// changes are detected instead of mis-read; an older one parses but fails
/// the comparison.
inline constexpr int kBenchRecordSchema = 4;

/// One flattened BENCH_*.json record.
struct BenchRecord {
  int schema = 1;  ///< records without the field predate it
  std::string bench;
  std::string workload;
  std::string manager;
  std::string topology = "ideal";     ///< absent in ideal-fabric records
  std::string placement = "default";  ///< absent for the identity layout
  std::int64_t cores = 0;
  /// Every other value, flattened to scalars in record order: "makespan"
  /// (ps), "speedup", then each metric — a histogram contributes
  /// "<path>:<field>" per summary field and "<path>:buckets/<lo>" per
  /// bucket — then, when the record carries a timeline,
  /// "timeline/interval_ps" and, per series, "timeline/<series>:gauge" plus
  /// one "timeline/<series>@<t>ps" per sample (delta encoding undone), so a
  /// series' first differing field names the sim-time it went
  /// off-trajectory. long double keeps 64-bit integer counters exact.
  std::vector<std::pair<std::string, long double>> fields;

  /// The row's identity: bench|workload|manager|topology[|placement]|cores.
  [[nodiscard]] std::string key() const;
};

/// Parse a BENCH_*.json document (a JSON array of records, or one record
/// object). Returns false with a message on malformed input or a schema
/// newer than kBenchRecordSchema.
bool parse_bench_records(std::string_view json_text,
                         std::vector<BenchRecord>* out, std::string* error);

struct PerfdiffResult {
  int differing = 0;   ///< differing rows, missing or extra ones included
  std::string report;  ///< human-readable, one line per finding

  [[nodiscard]] bool ok() const { return differing == 0; }
};

/// Compare candidate records against the baseline position by position.
PerfdiffResult perfdiff_compare(std::span<const BenchRecord> baseline,
                                std::span<const BenchRecord> candidate);

}  // namespace nexus::harness
