// Exporters for frozen host-side profiles (telemetry::Profiler).
//
// Three consumers, three formats: `profile_json` is the schema'd
// machine-readable tree (validated by scripts/validate_profile.py),
// `profile_collapsed` is the speedscope/FlameGraph collapsed-stack dialect
// ("a;b;c self_ns" per line — https://www.speedscope.app imports it
// directly), and `profile_top` ranks nodes by self time for terminal
// tables (nexus-bench --prof).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/telemetry/profiler.hpp"

namespace nexus::telemetry {

/// Profile as a schema'd JSON document:
///   {"schema":1,"unit":"ns","wall_ns":<measured>,"profile_wall_ns":...,
///    "tree":{"name","self_ns","total_ns","count","max","children":[...]}}
/// `measured_wall_ns` is the caller's independent wall-clock measurement of
/// the profiled region (0 = unknown); the validator reconciles the root
/// total against it. Children appear in the frozen (name-sorted) order, so
/// the document is deterministic in shape.
std::string profile_json(const ProfileData& data,
                         std::uint64_t measured_wall_ns = 0);

/// Same tree as an object *value* appended into an open JsonWriter
/// document (after a key() or inside an array).
class JsonWriter;
void append_profile(JsonWriter& w, const ProfileData& data,
                    std::uint64_t measured_wall_ns = 0);

/// Collapsed-stack / FlameGraph format: one "all;path;to;node <self_ns>"
/// line per node with nonzero self time, root first, depth-first in
/// name-sorted order.
std::string profile_collapsed(const ProfileData& data);

/// One row of the self-time ranking.
struct ProfileTopEntry {
  std::string path;          ///< ';'-joined from the root
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
  double pct = 0.0;          ///< share of the root total
};

/// Nodes ranked by self time, descending (ties broken by path for
/// determinism), at most `n` entries, zero-self nodes skipped.
std::vector<ProfileTopEntry> profile_top(const ProfileData& data,
                                         std::size_t n);

/// The ranking rendered as an aligned text table (what nexus-bench --prof
/// prints per grid cell).
std::string profile_top_table(const ProfileData& data, std::size_t n);

}  // namespace nexus::telemetry
