#include "nexus/sim/simulation.hpp"

#include <string>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"

namespace nexus {

std::uint32_t Simulation::add_component(Component* c) {
  NEXUS_ASSERT(c != nullptr);
  components_.push_back(c);
  return static_cast<std::uint32_t>(components_.size() - 1);
}

void Simulation::schedule(Tick t, std::uint32_t comp, std::uint32_t op,
                          std::uint64_t a, std::uint64_t b) {
  NEXUS_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  NEXUS_ASSERT_MSG(comp < components_.size(), "unknown component id");
  const Event ev{t, seq_++, comp, op, a, b};
  if (prof_ == nullptr) {
    queue_.push(ev);
    return;
  }
  telemetry::ProfScope ps(prof_, prof_push_);
  queue_.push(ev);
}

void Simulation::run() {
  if (prof_ != nullptr) {
    run_profiled(~std::uint64_t{0});
    return;
  }
  while (!queue_.empty() && !stopped_) {
    const Event ev = queue_.pop();
    observe(ev);
    now_ = ev.t;
    ++processed_;
    components_[ev.comp]->handle(*this, ev);
  }
  flush_queue_metrics();
}

bool Simulation::run_some(std::uint64_t max_events) {
  if (prof_ != nullptr) return run_profiled(max_events);
  std::uint64_t n = 0;
  while (!queue_.empty() && !stopped_ && n < max_events) {
    const Event ev = queue_.pop();
    observe(ev);
    now_ = ev.t;
    ++processed_;
    ++n;
    components_[ev.comp]->handle(*this, ev);
  }
  flush_queue_metrics();
  return !queue_.empty() && !stopped_;
}

bool Simulation::run_profiled(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!queue_.empty() && !stopped_ && n < max_events) {
    Event ev;
    {
      telemetry::ProfScope ps(prof_, prof_pop_);
      ev = queue_.pop();
    }
    observe(ev);
    now_ = ev.t;
    ++processed_;
    ++n;
    {
      telemetry::ProfScope ps(prof_, profiler_component_node(ev.comp));
      components_[ev.comp]->handle(*this, ev);
    }
  }
  prof_->stat_max(prof_max_depth_, queue_.max_depth());
  flush_queue_metrics();
  return !queue_.empty() && !stopped_;
}

void Simulation::bind_profiler(telemetry::Profiler& prof,
                               std::uint32_t parent) {
  prof_ = &prof;
  const auto queue = prof.node(parent, "queue");
  prof_push_ = prof.node(queue, "push");
  prof_pop_ = prof.node(queue, "pop");
  prof_max_depth_ = prof.node(queue, "max_depth");

  prof_handle_ = prof.node(parent, "handle");
  prof_comp_node_.clear();
  prof_comp_node_.reserve(components_.size());
  for (Component* c : components_) {
    // Keyed by type label, so replicated components (16 worker cores, N
    // TGUs) aggregate into one node each — the profile answers "where do
    // the cycles go per *kind* of unit", which is what partitioning needs.
    prof_comp_node_.push_back(prof.node(prof_handle_, c->telemetry_label()));
  }
}

void Simulation::bind_telemetry(telemetry::MetricRegistry& reg,
                                std::string_view prefix) {
  m_events_ = &reg.counter(telemetry::path_join(prefix, "events"));
  m_advance_ = &reg.histogram(telemetry::path_join(prefix, "advance_ps"));
  comp_events_.clear();
  comp_gap_.clear();
  comp_last_.assign(components_.size(), 0);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const std::string comp = "c" + std::to_string(i) + "_" +
                             components_[i]->telemetry_label();
    const std::string base = telemetry::path_join(prefix, comp);
    comp_events_.push_back(&reg.counter(telemetry::path_join(base, "events")));
    comp_gap_.push_back(&reg.histogram(telemetry::path_join(base, "gap_ps")));
  }
  m_q_max_depth_ = &reg.gauge(telemetry::path_join(prefix, "queue/max_depth"));
}

void Simulation::flush_queue_metrics() {
  if (m_q_max_depth_ == nullptr) return;
  m_q_max_depth_->set(static_cast<std::int64_t>(queue_.max_depth()));
}

void Simulation::set_sampler(telemetry::TimelineRecorder* sampler) {
  sampler_ = sampler;
  // A recorder attached mid-run has not observed anything yet: consume the
  // grid points already behind now() as unobserved rows (exported as zeros)
  // rather than letting the first sample back-date the attach-time metric
  // values onto them. Pre-run (now() == 0) this is a no-op, keeping the
  // attach-before-run path bit-identical to the pre-fix behavior.
  if (sampler_ != nullptr && now_ > 0) sampler_->skip_until(now_);
}

void Simulation::sample_to(Tick t) { sampler_->sample_until(t); }

void Simulation::observe_slow(const Event& ev) {
  m_events_->inc();
  m_advance_->record(static_cast<std::uint64_t>(ev.t - now_));
  if (ev.comp < comp_events_.size()) {
    comp_events_[ev.comp]->inc();
    comp_gap_[ev.comp]->record(
        static_cast<std::uint64_t>(ev.t - comp_last_[ev.comp]));
    comp_last_[ev.comp] = ev.t;
  }
}

}  // namespace nexus
