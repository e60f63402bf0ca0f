#include "nexus/telemetry/timeline.hpp"

#include <algorithm>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/metrics.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/writers.hpp"

namespace nexus::telemetry {

namespace {

bool glob_match_impl(const char* p, const char* pe, const char* s,
                     const char* se) {
  while (p != pe) {
    if (*p == '*') {
      const bool cross = p + 1 != pe && p[1] == '*';
      const char* pn = p + (cross ? 2 : 1);
      for (const char* t = s;; ++t) {
        if (glob_match_impl(pn, pe, t, se)) return true;
        if (t == se) return false;
        if (!cross && *t == '/') return false;
      }
    }
    if (s == se) return false;
    if (*p == '?') {
      if (*s == '/') return false;
    } else if (*p != *s) {
      return false;
    }
    ++p;
    ++s;
  }
  return s == se;
}

}  // namespace

bool path_glob_match(std::string_view pattern, std::string_view path) {
  return glob_match_impl(pattern.data(), pattern.data() + pattern.size(),
                         path.data(), path.data() + path.size());
}

bool selectors_match(const std::vector<std::string>& selectors,
                     std::string_view path) {
  if (selectors.empty()) return true;
  for (const auto& sel : selectors)
    if (path_glob_match(sel, path)) return true;
  return false;
}

const TimelineSeries* Timeline::find(std::string_view path) const {
  for (const auto& s : series)
    if (s.path == path) return &s;
  return nullptr;
}

TimelineRecorder::TimelineRecorder(const MetricRegistry& reg,
                                   TimelineConfig cfg)
    : reg_(reg), cfg_(std::move(cfg)), interval_(cfg_.interval_ps) {
  NEXUS_ASSERT_MSG(cfg_.interval_ps > 0, "timeline interval must be positive");
  NEXUS_ASSERT_MSG(cfg_.max_points >= 2, "timeline needs at least two points");
}

void TimelineRecorder::sample_until(TimeTick t) {
  while (next_t_ <= t) {
    record_row(next_t_);
    next_t_ += interval_;
    if (times_.size() > cfg_.max_points) coarsen();
  }
}

void TimelineRecorder::finish(TimeTick t) {
  if (!times_.empty() && t <= times_.back()) return;
  // Coarsen *before* appending: coarsen keeps even-indexed rows only, so
  // appending first could land the final makespan row on an odd index and
  // immediately decimate away the very row this call promises to record.
  if (times_.size() + 1 > cfg_.max_points) coarsen();
  record_row(t);
  next_t_ = std::max(next_t_, t + interval_);
}

void TimelineRecorder::record_row(TimeTick t) {
  times_.push_back(t);

  // Re-scan the registry so metrics registered after earlier rows are
  // picked up; their series get a zero prefix to stay aligned.
  struct Sampler final : MetricVisitor {
    TimelineRecorder* rec;
    std::size_t row;  ///< index of the row being filled

    void append(std::string_view path, MetricKind kind, std::int64_t value) {
      auto it = rec->index_.find(path);
      if (it == rec->index_.end()) {
        TimelineSeries s;
        s.path = std::string(path);
        s.kind = kind;
        s.v.assign(row, 0);  // back-fill rows before the metric existed
        rec->series_.push_back(std::move(s));
        it = rec->index_.emplace(std::string(path), rec->series_.size() - 1)
                 .first;
      }
      rec->series_[it->second].v.push_back(value);
    }

    void on_counter(std::string_view path, const Counter& c) override {
      append(path, MetricKind::kCounter, static_cast<std::int64_t>(c.value()));
    }
    void on_gauge(std::string_view path, const Gauge& g) override {
      append(path, MetricKind::kGauge, g.value());
    }
    void on_histogram(std::string_view path, const Histogram& h) override {
      // Split into two monotone series; windowed mean = delta(sum)/delta(count).
      append(std::string(path) + ":count", MetricKind::kCounter,
             static_cast<std::int64_t>(h.count()));
      append(std::string(path) + ":sum", MetricKind::kCounter,
             static_cast<std::int64_t>(h.sum()));
    }
  };

  struct Filter final : MetricVisitor {
    Sampler* inner;
    const std::vector<std::string>* select;
    void on_counter(std::string_view path, const Counter& c) override {
      if (selectors_match(*select, path)) inner->on_counter(path, c);
    }
    void on_gauge(std::string_view path, const Gauge& g) override {
      if (selectors_match(*select, path)) inner->on_gauge(path, g);
    }
    void on_histogram(std::string_view path, const Histogram& h) override {
      if (selectors_match(*select, path)) inner->on_histogram(path, h);
    }
  };

  Sampler sampler;
  sampler.rec = this;
  sampler.row = times_.size() - 1;
  Filter filter;
  filter.inner = &sampler;
  filter.select = &cfg_.select;
  reg_.visit(filter);

  // A series whose metric vanished can't happen (registries only grow), so
  // after the visit every series is exactly `times_.size()` long.
  for ([[maybe_unused]] const auto& s : series_)
    NEXUS_DCHECK(s.v.size() == times_.size());
}

void TimelineRecorder::coarsen() {
  // Keep even-indexed rows, double the interval: resolution halves but the
  // covered range is preserved, deterministically.
  std::size_t out = 0;
  for (std::size_t i = 0; i < times_.size(); i += 2) times_[out++] = times_[i];
  times_.resize(out);
  for (auto& s : series_) {
    out = 0;
    for (std::size_t i = 0; i < s.v.size(); i += 2) s.v[out++] = s.v[i];
    s.v.resize(out);
  }
  interval_ *= 2;
  next_t_ = times_.back() + interval_;
}

Timeline TimelineRecorder::freeze() const {
  Timeline tl;
  tl.interval = interval_;
  tl.t = times_;
  tl.series.reserve(series_.size());
  for (const auto& [path, idx] : index_) tl.series.push_back(series_[idx]);
  return tl;
}

std::vector<std::int64_t> delta_encode(const std::vector<std::int64_t>& v) {
  std::vector<std::int64_t> out;
  out.reserve(v.size());
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(i == 0 ? v[i] : v[i] - prev);
    prev = v[i];
  }
  return out;
}

std::vector<std::int64_t> delta_decode(const std::vector<std::int64_t>& v) {
  std::vector<std::int64_t> out;
  out.reserve(v.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc = i == 0 ? v[i] : acc + v[i];
    out.push_back(acc);
  }
  return out;
}

namespace {

void append_values(JsonWriter& w, const std::vector<std::int64_t>& v,
                   bool delta) {
  w.begin_array();
  if (delta) {
    for (const std::int64_t d : delta_encode(v)) w.value(d);
  } else {
    for (const std::int64_t x : v) w.value(x);
  }
  w.end_array();
}

}  // namespace

void append_timeline(JsonWriter& w, const Timeline& tl, bool delta) {
  w.begin_object();
  w.kv("interval_ps", tl.interval);
  w.kv("points", static_cast<std::uint64_t>(tl.t.size()));
  w.kv("encoding", delta ? "delta" : "raw");
  w.key("t");
  {
    std::vector<std::int64_t> t(tl.t.begin(), tl.t.end());
    append_values(w, t, delta);
  }
  w.key("series").begin_object();
  for (const auto& s : tl.series) {
    w.key(s.path).begin_object();
    w.kv("kind", to_string(s.kind));
    w.key("v");
    // Gauges may move in both directions; deltas would not compress them
    // and complicate decoding, so only monotone (counter-kind) series are
    // delta-encoded.
    append_values(w, s.v, delta && s.kind == MetricKind::kCounter);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string timeline_json(const Timeline& tl, bool delta) {
  JsonWriter w;
  append_timeline(w, tl, delta);
  return w.str();
}

}  // namespace nexus::telemetry
