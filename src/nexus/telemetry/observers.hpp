// The one way to attach instrumentation to a simulated run.
//
// A run binds one Observers value to its Simulation before any component
// is added (Simulation::bind). Every block then picks up the surfaces —
// metrics, lifecycle trace, host profile — in its own attach(), from
// Simulation::observers(), so a block cannot observe one surface and forget
// another; the kernel itself drives the timeline. Null members leave that
// surface off: its hook sites keep a null pointer and cost one predictable
// branch.
#pragma once

#include <cstdint>

#include "nexus/telemetry/fwd.hpp"

namespace nexus::telemetry {

struct Observers {
  MetricRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  Profiler* profiler = nullptr;
  /// Sampled before each event is dispatched, so timeline rows capture the
  /// state just before the sim crosses each grid point. It only reads
  /// metrics and never changes simulated behaviour.
  TimelineRecorder* timeline = nullptr;
  /// Profile node the run's instrumentation nests under (Profiler::kRoot
  /// when unset).
  std::uint32_t profile_parent = 0;
};

}  // namespace nexus::telemetry
