#include "nexus/harness/perfdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "nexus/telemetry/timeline.hpp"

namespace nexus::harness {

namespace {

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

std::string fmt_ms(std::int64_t ps) {
  return fmt("%.3fms", static_cast<double>(ps) * 1e-9);
}

/// Signed relative change in percent; 0 when the baseline is 0.
double pct_change(double base, double cand) {
  return base != 0.0 ? (cand - base) / base * 100.0 : 0.0;
}

/// Rates are per-task ratios; treat differences below this as exact noise
/// (a zero-conflict baseline should not flag on a 1e-12 artifact).
constexpr double kRateEps = 1e-9;

/// Decode a metrics_report_json "timeline" object (see append_timeline for
/// the schema) back into a Timeline, undoing the delta encoding.
bool parse_timeline(const telemetry::JsonValue& v, telemetry::Timeline* out,
                    bool* present, std::string* error) {
  const telemetry::JsonValue* f = v.find("interval_ps");
  out->interval = f != nullptr ? f->int_or(0) : 0;
  const bool delta =
      (f = v.find("encoding")) == nullptr || f->str_or("delta") == "delta";
  f = v.find("t");
  if (f == nullptr || !f->is_array()) {
    if (error != nullptr) *error = "timeline is missing the \"t\" axis";
    return false;
  }
  std::vector<std::int64_t> t;
  t.reserve(f->array.size());
  for (const telemetry::JsonValue& e : f->array) t.push_back(e.int_or(0));
  if (delta) t = telemetry::delta_decode(t);
  out->t.assign(t.begin(), t.end());
  f = v.find("series");
  if (f != nullptr && f->is_object()) {
    for (const auto& [path, sv] : f->object) {
      telemetry::TimelineSeries s;
      s.path = path;
      const telemetry::JsonValue* kind = sv.find("kind");
      s.kind = kind != nullptr && kind->str_or("counter") == "gauge"
                   ? telemetry::MetricKind::kGauge
                   : telemetry::MetricKind::kCounter;
      const telemetry::JsonValue* vals = sv.find("v");
      if (vals == nullptr || !vals->is_array()) {
        if (error != nullptr)
          *error = "timeline series \"" + path + "\" has no value array";
        return false;
      }
      s.v.reserve(vals->array.size());
      for (const telemetry::JsonValue& e : vals->array)
        s.v.push_back(e.int_or(0));
      // Mirrors append_timeline: only counter-kind series are delta-coded.
      if (delta && s.kind == telemetry::MetricKind::kCounter)
        s.v = telemetry::delta_decode(s.v);
      out->series.push_back(std::move(s));
    }
  }
  *present = true;
  return true;
}

bool parse_one_record(const telemetry::JsonValue& v, BenchRecord* out,
                      std::string* error) {
  if (!v.is_object()) {
    if (error != nullptr) *error = "record is not a JSON object";
    return false;
  }
  const telemetry::JsonValue* schema = v.find("schema");
  out->schema = schema != nullptr ? static_cast<int>(schema->int_or(1)) : 1;
  if (out->schema < 1 || out->schema > kBenchRecordSchema) {
    if (error != nullptr)
      *error = "unknown record schema version " + std::to_string(out->schema) +
               " (this tool understands <= " +
               std::to_string(kBenchRecordSchema) + ")";
    return false;
  }
  const telemetry::JsonValue* field = v.find("bench");
  if (field == nullptr || !field->is_string()) {
    if (error != nullptr) *error = "record is missing the \"bench\" field";
    return false;
  }
  out->bench = field->str;
  out->workload = (field = v.find("workload")) != nullptr ? field->str_or("") : "";
  out->manager = (field = v.find("manager")) != nullptr ? field->str_or("") : "";
  // Optional since the NoC layer; records without it are ideal-topology.
  out->topology =
      (field = v.find("topology")) != nullptr ? field->str_or("ideal") : "ideal";
  // Optional since the placement layer; absent means the identity layout.
  out->placement = (field = v.find("placement")) != nullptr
                       ? field->str_or("default")
                       : "default";
  out->cores = (field = v.find("cores")) != nullptr ? field->int_or(0) : 0;
  field = v.find("makespan");
  if (field == nullptr || !field->is_number()) {
    if (error != nullptr) *error = "record is missing the \"makespan\" field";
    return false;
  }
  out->makespan = field->int_or(0);
  out->speedup = (field = v.find("speedup")) != nullptr ? field->num_or(0.0) : 0.0;

  const telemetry::JsonValue* metrics = v.find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    for (const auto& [path, mv] : metrics->object) {
      if (mv.is_number()) {
        out->metrics.emplace_back(path, mv.number);
      } else if (mv.is_object()) {
        // Histogram: flatten the scalar summary fields (the quantiles are
        // absent from schema <= 2 records and simply contribute nothing).
        for (const char* f : {"count", "sum", "min", "max", "mean", "p50",
                              "p95", "p99", "p999"}) {
          const telemetry::JsonValue* hv = mv.find(f);
          if (hv != nullptr && hv->is_number())
            out->metrics.emplace_back(path + std::string(":") + f, hv->number);
        }
      }
    }
  }

  const telemetry::JsonValue* tl = v.find("timeline");
  if (tl != nullptr && tl->is_object() &&
      !parse_timeline(*tl, &out->timeline, &out->has_timeline, error))
    return false;
  return true;
}

}  // namespace

std::string BenchRecord::key() const {
  // "default" placements are omitted so keys (and report lines) match the
  // pre-placement format for every pre-existing record.
  return bench + "|" + workload + "|" + manager + "|" + topology +
         (placement == "default" ? "" : "|" + placement) + "|" +
         std::to_string(cores);
}

double BenchRecord::metric_sum(std::string_view glob) const {
  double sum = 0.0;
  for (const auto& [path, value] : metrics)
    if (telemetry::path_glob_match(glob, path)) sum += value;
  return sum;
}

bool BenchRecord::has_metric(std::string_view glob) const {
  for (const auto& [path, value] : metrics)
    if (telemetry::path_glob_match(glob, path)) return true;
  return false;
}

double BenchRecord::tasks() const {
  for (const auto& [path, value] : metrics)
    if (path == "runtime/tasks" && value > 0.0) return value;
  return 1.0;
}

bool parse_bench_records(std::string_view json_text,
                         std::vector<BenchRecord>* out, std::string* error) {
  out->clear();
  telemetry::JsonValue doc;
  if (!telemetry::json_parse(json_text, &doc, error)) return false;
  const auto* records = &doc.array;
  std::vector<telemetry::JsonValue> single;
  if (doc.is_object()) {
    single.push_back(std::move(doc));
    records = &single;
  } else if (!doc.is_array()) {
    if (error != nullptr) *error = "document is neither an array nor a record";
    return false;
  }
  for (std::size_t i = 0; i < records->size(); ++i) {
    BenchRecord rec;
    std::string why;
    if (!parse_one_record((*records)[i], &rec, &why)) {
      if (error != nullptr)
        *error = "record " + std::to_string(i) + ": " + why;
      return false;
    }
    out->push_back(std::move(rec));
  }
  return true;
}

std::vector<WatchedRate> default_watched_rates() {
  // '**' so the globs reach both managers' layouts: Nexus++ nests these
  // one level deep (nexus++/dep_counts/parked) but Nexus# two or three
  // (nexus#/arbiter/dep_counts/parked, nexus#/tg<i>/table/stalls), and a
  // single-segment '*' cannot cross the extra '/'.
  return {
      {"conflict_rate", "**/arbiter/conflicts", false, 0.0},
      {"retry_rate", "**/arbiter/retries", false, 0.0},
      {"park_rate", "**/dep_counts/parked", false, 0.0},
      {"table_stall_rate", "**/table/stalls", false, 0.0},
      // NoC link contention per task, every network (nexus#/noc,
      // nexus++/noc, runtime/noc); 0 on the ideal crossbar. Deterministic
      // counters on the default band, so more contention must be stated.
      {"noc_stall_rate", "**/noc/stall_ps", false, 0.0},
      {"noc_blocked_rate", "**/noc/blocked_flits", false, 0.0},
      // DES events per task, per component kind (the kernel's per-component
      // sim/c<i>_<kind>/events counters, summed over instances). Every
      // event is deterministic, so a hot-path change that adds or drops
      // events on any layer must state it.
      {"driver_event_rate", "sim/c*_driver/events", false, 0.0},
      {"io_event_rate", "sim/c*_io/events", false, 0.0},
      {"tg_event_rate", "sim/c*_tg/events", false, 0.0},
      {"arbiter_event_rate", "sim/c*_arbiter/events", false, 0.0},
      {"root_event_rate", "sim/c*_root/events", false, 0.0},
      {"npp_event_rate", "sim/c*_npp/events", false, 0.0},
      {"noc_event_rate", "sim/c*_noc/events", false, 0.0},
      // Kernel throughput (simspeed's kernel-heap rows) is
      // wall-clock-derived: deterministic in *what* it simulates (the
      // makespan field gates that tightly) but not in how fast the host ran
      // it, and run-to-run wall-clock noise on a shared machine easily
      // exceeds any real kernel change, so only a collapse — losing three
      // quarters of the baseline's events/sec — counts as a regression.
      {"sim_events_per_sec", "simspeed/events_per_sec", true, 75.0},
      // Tail-latency gates over the schema-3 histogram quantile fields.
      // Raw picosecond values (per_task=false: a quantile is not an
      // accumulating counter) and require_both (pre-quantile baselines are
      // skipped, not failed as was-zero regressions). The sim is
      // deterministic, so the band only has to absorb histogram-bucket
      // interpolation shifts; the extreme tail gets a wider one.
      {"sojourn_p50", "runtime/sojourn_ps:p50", false, 0.0, false, true},
      {"sojourn_p99", "runtime/sojourn_ps:p99", false, 0.0, false, true},
      {"sojourn_p999", "runtime/sojourn_ps:p999", false, 15.0, false, true},
      {"serving_p50", "runtime/serving_latency_ps:p50", false, 0.0, false,
       true},
      {"serving_p99", "runtime/serving_latency_ps:p99", false, 0.0, false,
       true},
      {"serving_p999", "runtime/serving_latency_ps:p999", false, 15.0, false,
       true},
      // Saturation-knee throughput (serving rows only): shrinking the
      // sustainable rate is the regression.
      {"knee_throughput", "serving/knee_hz", true, 10.0, false, true},
      // Multi-tenant fairness verdicts (tenancy rows only). The Jain index
      // shrinking or the max/min slowdown ratio growing is an isolation
      // regression even when no makespan moved. Absolute fixed-point
      // gauges, so per_task=false; require_both so non-tenancy rows skip.
      {"fairness_jain", "fairness/jain_x1e6", true, 5.0, false, true},
      {"fairness_slowdown_ratio", "fairness/slowdown_ratio_x1e3", false, 10.0,
       false, true},
      // Schema-4 host-time attribution (simspeed --prof rows): where the
      // simulator's own wall clock went. Report-only — host time moves with
      // the machine, the load, and the thermal du jour, so no tolerance is
      // tight enough to gate on and wide enough to stay quiet — and
      // require_both so schema-3 baselines skip rather than fail.
      {"host_pop_ns", "prof/pop_ns", false, 0.0, false, true, true},
      {"host_push_ns", "prof/push_ns", false, 0.0, false, true, true},
      {"host_handle_ns", "prof/handle_ns", false, 0.0, false, true, true},
      {"host_profiled_ns", "prof/total_ns", false, 0.0, false, true, true},
  };
}

namespace {

double timeline_tol_for(const PerfdiffOptions& opts, std::string_view path) {
  for (const auto& [glob, pct] : opts.timeline_tolerances)
    if (telemetry::path_glob_match(glob, path)) return pct;
  return opts.timeline_tolerance_pct;
}

/// Point-by-point timeline diff: one detail line per diverging series,
/// carrying the sim-time of its *first* divergence. Returns true if
/// anything diverged.
bool diff_timelines(const PerfdiffOptions& opts, const telemetry::Timeline& b,
                    const telemetry::Timeline& c,
                    std::vector<std::string>* details) {
  bool bad = false;
  if (b.interval != c.interval) {
    bad = true;
    details->push_back(
        fmt("timeline interval %lld -> %lld ps (coarsening diverged)",
            static_cast<long long>(b.interval),
            static_cast<long long>(c.interval)));
  }
  const std::size_t rows = std::min(b.t.size(), c.t.size());
  for (std::size_t i = 0; i < rows; ++i) {
    if (b.t[i] != c.t[i]) {
      bad = true;
      details->push_back(fmt("timeline t-axis diverges at row %zu: %s -> %s",
                             i, fmt_ms(b.t[i]).c_str(),
                             fmt_ms(c.t[i]).c_str()));
      break;
    }
  }
  if (b.t.size() != c.t.size()) {
    bad = true;
    details->push_back(fmt("timeline rows %zu -> %zu", b.t.size(),
                           c.t.size()));
  }
  for (const auto& cs : c.series) {
    const telemetry::TimelineSeries* bs = b.find(cs.path);
    if (bs == nullptr) continue;  // fresh series (new metric): never a failure
    const double tol = timeline_tol_for(opts, cs.path);
    const std::size_t n = std::min({bs->v.size(), cs.v.size(), rows});
    for (std::size_t i = 0; i < n; ++i) {
      const auto bv = static_cast<double>(bs->v[i]);
      const auto cv = static_cast<double>(cs.v[i]);
      if (std::fabs(cv - bv) > std::fabs(bv) * tol / 100.0 + kRateEps) {
        bad = true;
        details->push_back(
            fmt("timeline %s first diverges at t=%s: %lld -> %lld "
                "(tolerance %.1f%%)",
                cs.path.c_str(), fmt_ms(b.t[i]).c_str(),
                static_cast<long long>(bs->v[i]),
                static_cast<long long>(cs.v[i]), tol));
        break;
      }
    }
  }
  for (const auto& bs : b.series) {
    if (c.find(bs.path) == nullptr) {
      bad = true;
      details->push_back(
          fmt("timeline series %s missing from candidate", bs.path.c_str()));
    }
  }
  return bad;
}

}  // namespace

PerfdiffResult perfdiff_compare(const std::vector<BenchRecord>& baseline,
                                const std::vector<BenchRecord>& candidate,
                                const PerfdiffOptions& opts) {
  PerfdiffResult res;
  std::map<std::string, const BenchRecord*> base_by_key;
  for (const auto& r : baseline) base_by_key[r.key()] = &r;

  auto line = [&res](const std::string& s) {
    res.report += s;
    res.report.push_back('\n');
  };

  std::map<std::string, bool> seen;  // baseline keys matched by a candidate
  for (const auto& cand : candidate) {
    const auto it = base_by_key.find(cand.key());
    if (it == base_by_key.end()) {
      // First run of this configuration (a fresh topology/placement row,
      // say): recorded as a new baseline, never as a failure.
      ++res.added;
      line(fmt("  [new]     %s: first record for this configuration "
               "(no baseline yet — not a regression)",
               cand.key().c_str()));
      continue;
    }
    const BenchRecord& base = *it->second;
    seen[cand.key()] = true;
    ++res.compared;

    bool regressed = false;
    bool improved = false;
    std::vector<std::string> details;

    const double mk_pct = pct_change(static_cast<double>(base.makespan),
                                     static_cast<double>(cand.makespan));
    if (mk_pct > opts.makespan_tolerance_pct) {
      regressed = true;
      details.push_back(fmt("makespan %s -> %s (%+.2f%%, limit %.2f%%)",
                            fmt_ms(base.makespan).c_str(),
                            fmt_ms(cand.makespan).c_str(), mk_pct,
                            opts.makespan_tolerance_pct));
    } else if (mk_pct < -opts.makespan_tolerance_pct) {
      improved = true;
      ++res.improvements;
      line(fmt("  [faster]  %s: makespan %s -> %s (%+.2f%%)",
               cand.key().c_str(), fmt_ms(base.makespan).c_str(),
               fmt_ms(cand.makespan).c_str(), mk_pct));
    }

    for (const auto& rate : opts.watched) {
      if (rate.require_both && (!base.has_metric(rate.numerator) ||
                                !cand.has_metric(rate.numerator)))
        continue;
      const double b =
          base.metric_sum(rate.numerator) / (rate.per_task ? base.tasks() : 1.0);
      const double c = cand.metric_sum(rate.numerator) /
                       (rate.per_task ? cand.tasks() : 1.0);
      if (rate.report_only) {
        // Echoed, never gated: the field exists so a human scanning the
        // report sees where host time moved, not so CI fails on it.
        if (!opts.quiet)
          line(fmt("  [info]    %s: %s %.6g -> %.6g (%+.1f%%; report-only)",
                   cand.key().c_str(), rate.name.c_str(), b, c,
                   pct_change(b, c)));
        continue;
      }
      const double tol = rate.tolerance_pct > 0.0 ? rate.tolerance_pct
                                                  : opts.metric_tolerance_pct;
      // Overhead rates regress by growing; throughput rates by shrinking.
      const bool bad = rate.higher_is_better
                           ? c < b * (1.0 - tol / 100.0) - kRateEps
                           : c > b * (1.0 + tol / 100.0) + kRateEps;
      if (bad) {
        regressed = true;
        details.push_back(
            b != 0.0 ? fmt("%s %.6g -> %.6g (%+.1f%%, limit %s%.1f%%)",
                           rate.name.c_str(), b, c, pct_change(b, c),
                           rate.higher_is_better ? "-" : "+", tol)
                     : fmt("%s 0 -> %.6g (was zero)", rate.name.c_str(), c));
      }
    }

    if (opts.compare_timelines) {
      if (base.has_timeline && cand.has_timeline) {
        if (diff_timelines(opts, base.timeline, cand.timeline, &details))
          regressed = true;
      } else if (base.has_timeline && !cand.has_timeline) {
        regressed = true;
        details.emplace_back(
            "timeline present in baseline but missing from candidate");
      }
    }

    if (regressed) {
      ++res.regressions;
      for (const auto& d : details)
        line(fmt("  [REGRESS] %s: %s", cand.key().c_str(), d.c_str()));
    } else if (!improved && !opts.quiet) {
      line(fmt("  [ok]      %s: makespan %s (%+.2f%%)", cand.key().c_str(),
               fmt_ms(cand.makespan).c_str(), mk_pct));
    }
  }

  for (const auto& r : baseline) {
    if (seen.find(r.key()) == seen.end()) {
      ++res.removed;
      line(fmt("  [removed] %s: record only in baseline", r.key().c_str()));
    }
  }

  line(fmt("perfdiff: %d compared, %d added, %d removed — %d regression(s), "
           "%d improvement(s)",
           res.compared, res.added, res.removed, res.regressions,
           res.improvements));
  return res;
}

}  // namespace nexus::harness
