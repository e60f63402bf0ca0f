#include "nexus/harness/perfdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nexus/telemetry/json.hpp"
#include "nexus/telemetry/timeline.hpp"

namespace nexus::harness {

namespace {

using telemetry::JsonValue;
using Fields = std::vector<std::pair<std::string, long double>>;

/// Differing fields printed per record before the rest are only counted.
constexpr std::size_t kShownPerRecord = 4;

std::string fmt(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// A value as the record writer spells it: integers exactly, fractions at
/// its 12 significant digits.
std::string num(long double v) {
  if (v == std::trunc(v) && std::fabs(v) < 9e18L)
    return std::to_string(static_cast<long long>(v));
  return fmt("%.12Lg", v);
}

long double number(const JsonValue& v) {
  return v.is_integer ? static_cast<long double>(v.integer)
                      : static_cast<long double>(v.number);
}

/// Flatten a metric value: a scalar is one field, an object (a histogram
/// and its bucket map) one field per number inside it.
void flatten(const std::string& path, const JsonValue& v, char sep,
             Fields* out) {
  if (v.is_number()) {
    out->emplace_back(path, number(v));
  } else if (v.is_object()) {
    for (const auto& [field, fv] : v.object)
      flatten(path + sep + field, fv, '/', out);
  }
}

/// Append a metrics_report_json "timeline" object (see append_timeline for
/// the schema) as fields, undoing the delta encoding.
bool flatten_timeline(const JsonValue& v, Fields* out, std::string* error) {
  const JsonValue* f = v.find("interval_ps");
  out->emplace_back("timeline/interval_ps", f != nullptr ? number(*f) : 0);
  const bool delta =
      (f = v.find("encoding")) == nullptr || f->str_or("delta") == "delta";
  auto values = [](const JsonValue& a, bool decode) {
    std::vector<std::int64_t> x;
    for (const JsonValue& e : a.array) x.push_back(e.int_or(0));
    return decode ? telemetry::delta_decode(x) : x;
  };
  if ((f = v.find("t")) == nullptr || !f->is_array()) {
    *error = "timeline is missing the \"t\" axis";
    return false;
  }
  const std::vector<std::int64_t> t = values(*f, delta);
  if ((f = v.find("series")) == nullptr || !f->is_object()) return true;
  for (const auto& [path, sv] : f->object) {
    const JsonValue* kind = sv.find("kind");
    const bool gauge = kind != nullptr && kind->str_or("") == "gauge";
    const JsonValue* vals = sv.find("v");
    if (vals == nullptr || !vals->is_array() ||
        vals->array.size() != t.size()) {
      *error = "timeline series \"" + path + "\" does not match the t axis";
      return false;
    }
    out->emplace_back("timeline/" + path + ":gauge", gauge ? 1 : 0);
    // Mirrors append_timeline: only counter-kind series are delta-coded.
    const std::vector<std::int64_t> s = values(*vals, delta && !gauge);
    for (std::size_t i = 0; i < s.size(); ++i)
      out->emplace_back(fmt("timeline/%s@%lldps", path.c_str(),
                            static_cast<long long>(t[i])),
                        static_cast<long double>(s[i]));
  }
  return true;
}

bool parse_one_record(const JsonValue& v, BenchRecord* out,
                      std::string* error) {
  if (!v.is_object()) {
    *error = "record is not a JSON object";
    return false;
  }
  auto str = [&v](const char* name, const char* dflt) {
    const JsonValue* f = v.find(name);
    return f != nullptr ? f->str_or(dflt) : dflt;
  };
  const JsonValue* f = v.find("schema");
  out->schema = f != nullptr ? static_cast<int>(f->int_or(1)) : 1;
  if (out->schema > kBenchRecordSchema) {
    *error = "unknown record schema version " + std::to_string(out->schema) +
             " (this tool understands <= " +
             std::to_string(kBenchRecordSchema) + ")";
    return false;
  }
  if ((f = v.find("bench")) == nullptr || !f->is_string()) {
    *error = "record is missing the \"bench\" field";
    return false;
  }
  out->bench = f->str;
  out->workload = str("workload", "");
  out->manager = str("manager", "");
  out->topology = str("topology", "ideal");
  out->placement = str("placement", "default");
  out->cores = (f = v.find("cores")) != nullptr ? f->int_or(0) : 0;
  if ((f = v.find("makespan")) == nullptr || !f->is_number()) {
    *error = "record is missing the \"makespan\" field";
    return false;
  }
  out->fields.emplace_back("makespan", number(*f));
  f = v.find("speedup");
  out->fields.emplace_back("speedup", f != nullptr ? number(*f) : 0);
  if ((f = v.find("metrics")) != nullptr && f->is_object())
    for (const auto& [path, mv] : f->object)
      flatten(path, mv, ':', &out->fields);
  f = v.find("timeline");
  return f == nullptr || !f->is_object() ||
         flatten_timeline(*f, &out->fields, error);
}

/// Every difference between two records at the same position, as
/// "path: base -> cand" — for a timeline series only its first divergence.
void diff_record(const BenchRecord& b, const BenchRecord& c,
                 std::vector<std::string>* diffs) {
  if (b.schema != kBenchRecordSchema || c.schema != kBenchRecordSchema)
    diffs->push_back(fmt("schema: %d -> %d (gated schema is %d)", b.schema,
                         c.schema, kBenchRecordSchema));
  if (b.key() != c.key())
    diffs->push_back("key: " + b.key() + " -> " + c.key());
  std::string_view last_series;
  const std::size_t n = std::max(b.fields.size(), c.fields.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto name = [i](const BenchRecord& r) {
      return i < r.fields.size() ? std::string_view(r.fields[i].first)
                                 : "(end)";
    };
    if (name(b) != name(c)) {
      // The field lists part ways here; later fields no longer line up.
      diffs->push_back("field " + std::to_string(i) + ": " +
                       std::string(name(b)) + " -> " + std::string(name(c)));
      return;
    }
    const auto& [path, bv] = b.fields[i];
    const long double cv = c.fields[i].second;
    if (bv == cv) continue;
    // Only timeline samples carry '@': report a series' first divergence.
    const std::string_view series =
        std::string_view(path).substr(0, path.find('@'));
    if (series.size() < path.size() && series == last_series) continue;
    last_series = series;
    diffs->push_back(path + ": " + num(bv) + " -> " + num(cv));
  }
}

}  // namespace

std::string BenchRecord::key() const {
  // "default" placements are omitted, as the record writer omits them.
  return bench + "|" + workload + "|" + manager + "|" + topology +
         (placement == "default" ? "" : "|" + placement) + "|" +
         std::to_string(cores);
}

bool parse_bench_records(std::string_view json_text,
                         std::vector<BenchRecord>* out, std::string* error) {
  out->clear();
  JsonValue doc;
  if (!telemetry::json_parse(json_text, &doc, error)) return false;
  std::vector<JsonValue> records;
  if (doc.is_object()) {
    records.push_back(std::move(doc));
  } else if (doc.is_array()) {
    records = std::move(doc.array);
  } else {
    if (error != nullptr) *error = "document is neither an array nor a record";
    return false;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    BenchRecord rec;
    std::string why;
    if (!parse_one_record(records[i], &rec, &why)) {
      if (error != nullptr) *error = "record " + std::to_string(i) + ": " + why;
      return false;
    }
    out->push_back(std::move(rec));
  }
  return true;
}

PerfdiffResult perfdiff_compare(std::span<const BenchRecord> baseline,
                                std::span<const BenchRecord> candidate) {
  PerfdiffResult res;
  auto diff_line = [&res](const std::string& key, const std::string& what) {
    res.report += "  [DIFF] " + key + ": " + what + "\n";
  };
  for (std::size_t r = 0; r < std::max(baseline.size(), candidate.size());
       ++r) {
    if (r >= baseline.size() || r >= candidate.size()) {
      ++res.differing;
      const bool missing = r >= candidate.size();
      diff_line(fmt("row %zu", r),
                (missing ? baseline[r] : candidate[r]).key() +
                    (missing ? " missing from candidate" : " only in candidate"));
      continue;
    }
    std::vector<std::string> diffs;
    diff_record(baseline[r], candidate[r], &diffs);
    if (diffs.empty()) continue;
    const std::string key = baseline[r].key();
    ++res.differing;
    for (std::size_t d = 0; d < diffs.size() && d < kShownPerRecord; ++d)
      diff_line(key, diffs[d]);
    if (diffs.size() > kShownPerRecord)
      diff_line(key, fmt("... and %zu more differing fields",
                         diffs.size() - kShownPerRecord));
  }
  res.report += fmt("perfdiff: %zu baseline vs %zu candidate records, "
                    "%d differ\n",
                    baseline.size(), candidate.size(), res.differing);
  return res;
}

}  // namespace nexus::harness
