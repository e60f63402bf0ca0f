// Open-loop arrival processes for serving-style benchmarks.
//
// Every paper bench is closed-loop: a fixed trace replays as fast as the
// manager admits it and the figure of merit is makespan. A production task
// manager instead faces an *arrival process* — requests from many
// independent clients at an offered rate — and is judged on tail latency at
// that rate. This layer generates deterministic seeded arrival schedules
// (Poisson, bursty MMPP on-off) over the existing
// workload kernels, and turns them into dependency-correct serving traces.
//
// Determinism contract: `generate_arrivals` and `make_serving_trace` are
// pure functions of their inputs — same config, same bytes, on every
// platform (the RNG is the repo-wide xoshiro256**, time accumulates in
// IEEE doubles with a fixed operation order). `make_serving_trace` reads
// only the schedule (config + explicit arrival/client vectors), never the
// generator's RNG position.
#pragma once

#include <cstdint>
#include <string>

#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/task/trace.hpp"

namespace nexus::workloads {

enum class ArrivalProcess : std::uint8_t {
  kPoisson = 0,  ///< memoryless aggregate rate (interarrival CV = 1)
  kBursty = 1,   ///< MMPP on-off: exponential bursts, silent gaps (CV > 1)
};

const char* to_string(ArrivalProcess p);

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean aggregate offered rate over all clients, tasks per second of sim
  /// time (the long-run rate for every process kind).
  double rate_hz = 2e6;
  /// Number of arrivals to generate. Fixing the count (not the horizon)
  /// keeps run cost flat while a sweep varies the rate.
  std::uint64_t tasks = 2000;
  std::uint32_t clients = 16;
  std::uint64_t seed = 0x5E21A115;
  /// Workload kernel that donates task durations, function ids and
  /// parameter shape (any workloads::make_workload name).
  std::string kernel = "gaussian-250";
  /// Probability that a task depends on its client's previous task (a
  /// client session issuing sequential requests); 0 = fully independent.
  double chain_fraction = 0.25;

  // -- bursty (MMPP on-off) knobs --
  /// Long-run fraction of time a burst is active; the on-state rate is
  /// rate_hz / on_fraction so the mean rate stays rate_hz.
  double on_fraction = 0.2;
  /// Mean length of one on+off modulation cycle.
  Tick burst_cycle_ps = us(400);

  friend bool operator==(const ArrivalConfig&, const ArrivalConfig&) = default;
};

/// A generated multi-client arrival schedule: the provenance config plus
/// the explicit per-task release times and client marks the runtime
/// consumes (OpenLoopSubmission). The vectors, not the config, are the
/// source of truth for replay — they survive generator changes.
struct ArrivalSchedule {
  ArrivalConfig config;
  OpenLoopSubmission submission;

  [[nodiscard]] std::uint64_t tasks() const {
    return submission.release.size();
  }
  /// Time of the last arrival (the offered-load horizon).
  [[nodiscard]] Tick horizon() const {
    return submission.release.empty() ? 0 : submission.release.back();
  }

  friend bool operator==(const ArrivalSchedule&,
                         const ArrivalSchedule&) = default;
};

/// Generate a schedule: `cfg.tasks` arrivals, sorted release times, client
/// marks uniform over `cfg.clients` (N independent clients at rate_hz/N
/// superpose to the aggregate process).
ArrivalSchedule generate_arrivals(const ArrivalConfig& cfg);

/// Build the serving trace for a schedule: one task per arrival, duration /
/// fn / parameter count donated by the kernel workload (seeded
/// permutation), one unique output address per task, and — with probability
/// chain_fraction — an input dependence on the same client's previous task.
/// No taskwaits: the trace is a pure open-loop submission stream. Task id i
/// is arrival i, so the schedule's vectors index it directly.
Trace make_serving_trace(const ArrivalSchedule& s);

}  // namespace nexus::workloads
