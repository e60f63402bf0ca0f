#include "nexus/telemetry/writers.hpp"

#include <cstdio>

#include "nexus/common/assert.hpp"
#include "nexus/common/table.hpp"
#include "nexus/telemetry/metrics.hpp"

namespace nexus::telemetry {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (needs_comma_.empty()) return;
  if (needs_comma_.back()) out_.push_back(',');
  needs_comma_.back() = true;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  NEXUS_ASSERT_MSG(!needs_comma_.empty(), "end_object without begin");
  needs_comma_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_.push_back('[');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  NEXUS_ASSERT_MSG(!needs_comma_.empty(), "end_array without begin");
  needs_comma_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_.push_back('"');
  out_.append(escape(k));
  out_.append("\":");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_.push_back('"');
  out_.append(escape(v));
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_.append(std::to_string(v));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_.append(std::to_string(v));
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  out_.append(fmt_double(v));
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_.append(v ? "true" : "false");
  return *this;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

void append_snapshot(JsonWriter& w, const Snapshot& snap) {
  w.begin_object();
  for (const auto& v : snap.values) {
    w.key(v.path);
    switch (v.kind) {
      case MetricKind::kCounter:
        w.value(v.counter);
        break;
      case MetricKind::kGauge:
        w.value(v.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = v.hist;
        w.begin_object();
        w.kv("count", h.count);
        w.kv("sum", h.sum);
        w.kv("min", h.min);
        w.kv("max", h.max);
        w.kv("mean", h.count > 0 ? static_cast<double>(h.sum) /
                                       static_cast<double>(h.count)
                                 : 0.0);
        w.kv("p50", h.p50());
        w.kv("p95", h.p95());
        w.kv("p99", h.p99());
        w.kv("p999", h.p999());
        w.key("buckets").begin_object();
        for (const auto& [idx, n] : h.buckets)
          w.kv(fmt_u64(Histogram::bucket_floor(idx)), n);
        w.end_object();
        w.end_object();
        break;
      }
    }
  }
  w.end_object();
}

std::string snapshot_json(const Snapshot& snap) {
  JsonWriter w;
  append_snapshot(w, snap);
  return w.str();
}

std::string snapshot_csv(const Snapshot& snap) {
  TextTable t({"path", "kind", "value", "count", "sum", "min", "max", "mean"});
  for (const auto& v : snap.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        t.add_row({v.path, "counter", fmt_u64(v.counter), "", "", "", "", ""});
        break;
      case MetricKind::kGauge:
        t.add_row({v.path, "gauge", std::to_string(v.gauge), "", "", "", "", ""});
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = v.hist;
        const double mean =
            h.count > 0
                ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                : 0.0;
        t.add_row({v.path, "histogram", "", fmt_u64(h.count), fmt_u64(h.sum),
                   fmt_u64(h.min), fmt_u64(h.max), fmt_double(mean)});
        break;
      }
    }
  }
  return t.csv();
}

std::string format_tree(const Snapshot& snap) {
  std::string out;
  std::vector<std::string_view> prev;
  for (const auto& v : snap.values) {
    // Split the path into components.
    std::vector<std::string_view> parts;
    std::string_view rest = v.path;
    for (std::size_t pos = rest.find('/'); pos != std::string_view::npos;
         pos = rest.find('/')) {
      parts.push_back(rest.substr(0, pos));
      rest.remove_prefix(pos + 1);
    }
    parts.push_back(rest);

    // Print unseen directory levels (snapshot order is sorted, so shared
    // prefixes were printed by an earlier line).
    std::size_t common = 0;
    while (common + 1 < parts.size() && common < prev.size() &&
           parts[common] == prev[common])
      ++common;
    for (std::size_t d = common; d + 1 < parts.size(); ++d) {
      out.append(2 * d, ' ');
      out.append(parts[d]);
      out.push_back('\n');
    }

    // Leaf line: name, kind, value summary.
    const std::size_t depth = parts.size() - 1;
    std::string line(2 * depth, ' ');
    line.append(parts.back());
    if (line.size() < 44) line.append(44 - line.size(), ' ');
    line.push_back(' ');
    switch (v.kind) {
      case MetricKind::kCounter:
        line.append("counter    ").append(fmt_u64(v.counter));
        break;
      case MetricKind::kGauge:
        line.append("gauge      ").append(std::to_string(v.gauge));
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = v.hist;
        const double mean =
            h.count > 0
                ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                : 0.0;
        line.append("histogram  count=").append(fmt_u64(h.count));
        line.append(" mean=").append(fmt_double(mean));
        line.append(" min=").append(fmt_u64(h.min));
        line.append(" max=").append(fmt_u64(h.max));
        line.append(" |");
        for (const auto& [idx, n] : h.buckets) {
          line.push_back(' ');
          line.append(fmt_u64(Histogram::bucket_floor(idx)));
          line.push_back(':');
          line.append(fmt_u64(n));
        }
        break;
      }
    }
    out.append(line);
    out.push_back('\n');

    prev.assign(parts.begin(), parts.end());
  }
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size() && std::fclose(f) == 0;
  if (n != content.size()) std::fclose(f);
  return ok;
}

}  // namespace nexus::telemetry
