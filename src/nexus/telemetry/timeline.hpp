// Sim-time metric timelines: a registry-attached sampler that turns live
// metrics into compact (time, value) series.
//
// A TimelineRecorder re-scans its MetricRegistry on every sample, so metrics
// registered lazily mid-run still show up (their series are zero-padded back
// to the first sample row, keeping every series aligned with the shared time
// axis). Sampling is driven by the DES kernel (Observers::timeline):
// rows land on a fixed sim-time grid, recorded *before* the event that
// crosses each grid point executes. The recorder never schedules events or
// mutates metrics, so attaching a timeline cannot perturb a run — simulated
// makespans are bit-identical with and without one (a tested contract).
//
// Memory stays bounded through deterministic auto-coarsening: when the row
// count would exceed `max_points`, every other row is dropped and the
// sampling interval doubles, so one configuration covers microsecond and
// multi-second makespans alike.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/telemetry/snapshot.hpp"

namespace nexus::telemetry {

/// Sim-time picoseconds. Telemetry sits below the sim layer, so this is a
/// plain integer here; it is layout-identical to nexus::Tick.
using TimeTick = std::int64_t;

class MetricRegistry;

/// Glob match for metric paths. `*` matches any run of characters within
/// one '/'-separated segment, `**` matches across segments, `?` matches a
/// single non-'/' character; everything else is literal.
bool path_glob_match(std::string_view pattern, std::string_view path);

/// True if `path` matches any selector (an empty selector list selects all).
bool selectors_match(const std::vector<std::string>& selectors,
                     std::string_view path);

struct TimelineConfig {
  /// Initial sampling period in sim-time picoseconds. Doubles on coarsening.
  TimeTick interval_ps = 100'000'000;  // 100 us

  /// Glob selectors over metric paths; empty selects every metric.
  std::vector<std::string> select;

  /// Row-count cap: one more row than this triggers coarsening (drop every
  /// other row, double the interval). Must be >= 2.
  std::size_t max_points = 1024;
};

/// One sampled series. Histogram metrics are split into two monotone
/// series, "<path>:count" and "<path>:sum" (windowed mean is their ratio of
/// deltas), reported with kind kCounter; the ':' cannot appear ambiguously
/// because registry paths never contain it.
struct TimelineSeries {
  std::string path;
  MetricKind kind = MetricKind::kCounter;
  /// One value per Timeline::t entry. Counter/histogram values are stored
  /// raw (absolute); encoding happens at export time.
  std::vector<std::int64_t> v;
};

/// A frozen timeline: self-contained plain data, safe to keep after the
/// recorder and the run are gone (mirrors Snapshot for end-of-run state).
struct Timeline {
  TimeTick interval = 0;  ///< final (post-coarsening) sampling period
  std::vector<TimeTick> t;  ///< shared time axis, strictly increasing
  std::vector<TimelineSeries> series;  ///< sorted by path

  [[nodiscard]] const TimelineSeries* find(std::string_view path) const;
};

class TimelineRecorder {
 public:
  /// The registry must outlive the recorder. Reading starts immediately;
  /// metrics appearing later are back-filled with zeros.
  explicit TimelineRecorder(const MetricRegistry& reg, TimelineConfig cfg = {});

  /// Record every pending grid point <= t. The DES kernel calls this with
  /// each event's timestamp before dispatching it.
  void sample_until(TimeTick t);

  /// Record one final off-grid row at `t` (end of run), if `t` is past the
  /// last recorded row.
  void finish(TimeTick t);

  [[nodiscard]] TimeTick interval() const { return interval_; }
  /// The next grid point sample_until() will record.
  [[nodiscard]] TimeTick next_sample() const { return next_t_; }
  [[nodiscard]] std::size_t rows() const { return times_.size(); }

  /// Deep-copy the collected series, sorted by path.
  [[nodiscard]] Timeline freeze() const;

 private:
  void record_row(TimeTick t);
  void coarsen();

  const MetricRegistry& reg_;
  TimelineConfig cfg_;
  TimeTick interval_;
  TimeTick next_t_ = 0;
  std::vector<TimeTick> times_;
  /// path -> index into series_; map keeps freeze() path-sorted.
  std::map<std::string, std::size_t, std::less<>> index_;
  std::vector<TimelineSeries> series_;
};

/// First element absolute, each following element the difference from its
/// predecessor. Empty input round-trips to empty output.
std::vector<std::int64_t> delta_encode(const std::vector<std::int64_t>& v);
std::vector<std::int64_t> delta_decode(const std::vector<std::int64_t>& v);

class JsonWriter;

/// Append a timeline as an object value into an open JSON document:
///   {"interval_ps": N, "points": M, "encoding": "delta"|"raw",
///    "t": [...], "series": {path: {"kind": k, "v": [...]}, ...}}
/// With delta encoding, "t" and every counter-kind series store
/// [first, diff, diff, ...]; gauge series are always raw.
void append_timeline(JsonWriter& w, const Timeline& tl, bool delta = true);

/// The same object as a standalone JSON document.
std::string timeline_json(const Timeline& tl, bool delta = true);

}  // namespace nexus::telemetry
