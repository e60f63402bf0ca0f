// Deterministic discrete-event simulation kernel.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nexus/sim/component.hpp"
#include "nexus/sim/event.hpp"
#include "nexus/sim/event_queue.hpp"
#include "nexus/telemetry/fwd.hpp"
#include "nexus/telemetry/observers.hpp"

namespace nexus {

class Simulation {
 public:
  /// Register a component; returns its id for event addressing.
  /// The component must outlive the simulation. Not owned.
  std::uint32_t add_component(Component* c);

  /// Schedule an event at absolute time t (must be >= now()).
  void schedule(Tick t, std::uint32_t comp, std::uint32_t op, std::uint64_t a = 0,
                std::uint64_t b = 0);

  /// Schedule an event `delay` after now().
  void schedule_in(Tick delay, std::uint32_t comp, std::uint32_t op,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    schedule(now_ + delay, comp, op, a, b);
  }

  /// Run until the event queue drains (or a component calls stop()).
  void run();

  /// Run at most `max_events` more events; returns false if the queue drained.
  bool run_some(std::uint64_t max_events);

  void stop() { stopped_ = true; }

  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Bind the run's observers (not owned). Metrics: total events, a
  /// histogram of time advances, per-component event counts plus
  /// inter-event sim-time histograms ("sim/c<i>_<label>/..."), and the
  /// deepest pending population ("sim/queue/max_depth", flushed at the end
  /// of each run()/run_some() call). Profiler: a stable node layout under
  /// `profile_parent` — "queue" with push/pop timers and the max-depth
  /// stat, and "handle" with one child per component *type*
  /// (telemetry_label(), so replicated components aggregate). Covers the
  /// components already added and every one added later; components pick
  /// up the same observers in their attach() via observers(). Unbound, the
  /// hot loop pays a single branch per run call and schedules stay
  /// bit-identical.
  void bind(const telemetry::Observers& obs);

  [[nodiscard]] const telemetry::Observers& observers() const { return obs_; }

  /// The profile node a component's handle() time accumulates into
  /// (used by components that want op-level children of their own node,
  /// e.g. noc::Network and the driver).
  [[nodiscard]] std::uint32_t profiler_component_node(std::uint32_t comp) const {
    return comp < prof_comp_node_.size() ? prof_comp_node_[comp] : prof_handle_;
  }

  /// Attach a periodic metric sampler (not owned; may be null to detach).
  /// Before each event is dispatched, the recorder is advanced to the event's
  /// timestamp, so timeline rows capture the state just *before* the sim
  /// crosses each grid point. The sampler only reads metrics — it schedules
  /// nothing and never changes simulated behavior. Attaching mid-run marks
  /// the grid points already behind now() as unobserved (zero-padded on
  /// export) instead of letting the first sample fabricate warm history.
  void set_sampler(telemetry::TimelineRecorder* sampler);

 private:
  /// Per-event metric hook; a single null check when telemetry is unbound.
  void observe(const Event& ev) {
    if (sampler_ != nullptr) sample_to(ev.t);
    if (m_events_ == nullptr) return;
    observe_slow(ev);
  }
  void observe_slow(const Event& ev);
  void sample_to(Tick t);

  /// Register component `i`'s per-component metrics and profile node.
  void cover(std::uint32_t i);

  /// The instrumented twin of the run loops (only entered when a profiler
  /// is bound, so the detached loops stay untouched).
  bool run_profiled(std::uint64_t max_events);
  /// Publish the queue's max depth into the max_depth gauge (run epilogue;
  /// one null check).
  void flush_queue_metrics();

  EventQueue queue_;
  std::vector<Component*> components_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;

  telemetry::Observers obs_;
  std::uint32_t prof_push_ = 0;
  std::uint32_t prof_pop_ = 0;
  std::uint32_t prof_handle_ = 0;
  std::vector<std::uint32_t> prof_comp_node_;  ///< per component id
  std::uint32_t prof_max_depth_ = 0;

  telemetry::TimelineRecorder* sampler_ = nullptr;
  telemetry::Counter* m_events_ = nullptr;
  telemetry::Histogram* m_advance_ = nullptr;  ///< now() jumps, in ps
  std::vector<telemetry::Counter*> comp_events_;
  std::vector<telemetry::Histogram*> comp_gap_;  ///< per-component event gaps
  std::vector<Tick> comp_last_;
  telemetry::Gauge* m_q_max_depth_ = nullptr;  ///< null without a registry
};

}  // namespace nexus
