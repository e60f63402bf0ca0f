// Machine-readable exporters for telemetry snapshots.
//
// JsonWriter is a small streaming JSON builder (objects/arrays/scalars with
// automatic comma placement) used both for snapshot export and for the
// nexus-bench BENCH_*.json reports; CSV goes through TextTable::csv.
// Serialization is deterministic: snapshot values are already path-sorted
// and doubles print with a fixed format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/telemetry/snapshot.hpp"

namespace nexus::telemetry {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(int v) { return value(std::int64_t{v}); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key+value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// The document built so far. Caller is responsible for having closed
  /// every container.
  [[nodiscard]] const std::string& str() const { return out_; }

  static std::string escape(std::string_view s);

 private:
  void comma();

  std::string out_;
  std::vector<bool> needs_comma_;  ///< one level per open container
  bool after_key_ = false;         ///< suppress the comma after a key
};

/// Snapshot as a flat JSON object: path -> scalar (counter/gauge) or
/// {count,sum,min,max,mean,p50,p95,p99,p999,buckets{floor:count}}
/// (histogram).
std::string snapshot_json(const Snapshot& snap);

/// Append the same representation as an object *value* into an open
/// document (after a key() or inside an array).
void append_snapshot(JsonWriter& w, const Snapshot& snap);

/// Snapshot as CSV: path,kind,value,count,sum,min,max,mean.
std::string snapshot_csv(const Snapshot& snap);

/// Human-readable hierarchical tree ('/'-separated path components become
/// indented levels), for the metrics_report example and debugging.
std::string format_tree(const Snapshot& snap);

/// Write `content` to `path` (truncating). Returns false on IO error.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace nexus::telemetry
