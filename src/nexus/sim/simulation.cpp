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
  const auto id = static_cast<std::uint32_t>(components_.size() - 1);
  cover(id);
  return id;
}

void Simulation::schedule(Tick t, std::uint32_t comp, std::uint32_t op,
                          std::uint64_t a, std::uint64_t b) {
  NEXUS_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  NEXUS_ASSERT_MSG(comp < components_.size(), "unknown component id");
  const Event ev{t, seq_++, comp, op, a, b};
  if (obs_.profiler == nullptr) {
    queue_.push(ev);
    return;
  }
  telemetry::ProfScope ps(obs_.profiler, prof_push_);
  queue_.push(ev);
}

bool Simulation::run_some(std::uint64_t max_events) {
  if (obs_.profiler != nullptr) return run_profiled(max_events);
  std::uint64_t n = 0;
  while (!queue_.empty() && n < max_events) {
    const Event ev = queue_.pop();
    observe(ev);
    now_ = ev.t;
    ++processed_;
    ++n;
    components_[ev.comp]->handle(*this, ev);
  }
  flush_run_metrics();
  return !queue_.empty();
}

bool Simulation::run_profiled(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!queue_.empty() && n < max_events) {
    Event ev;
    {
      telemetry::ProfScope ps(obs_.profiler, prof_pop_);
      ev = queue_.pop();
    }
    observe(ev);
    now_ = ev.t;
    ++processed_;
    ++n;
    {
      obs_.profiler->add_count(profiler_component_node(ev.comp));
      telemetry::ProfScope ps(obs_.profiler, profiler_op_node(ev.comp, ev.op));
      components_[ev.comp]->handle(*this, ev);
    }
  }
  obs_.profiler->stat_max(prof_max_depth_, queue_.max_depth());
  flush_run_metrics();
  return !queue_.empty();
}

std::uint32_t Simulation::profiler_op_node(std::uint32_t comp, std::uint32_t op) {
  std::vector<std::uint32_t>& ops = prof_op_node_[comp];
  if (op >= ops.size()) ops.resize(op + 1, 0);
  if (ops[op] == 0) {
    const char* label = components_[comp]->op_label(op);
    ops[op] = obs_.profiler->node(prof_comp_node_[comp],
                                  label != nullptr ? std::string(label)
                                                   : "op" + std::to_string(op));
  }
  return ops[op];
}

void Simulation::bind(const telemetry::Observers& obs) {
  obs_ = obs;
  telemetry::MetricRegistry* reg = obs_.metrics;
  m_events_ = reg != nullptr ? &reg->counter("sim/events") : nullptr;
  m_advance_ = reg != nullptr ? &reg->histogram("sim/advance_ps") : nullptr;
  m_q_max_depth_ = reg != nullptr ? &reg->gauge("sim/queue/max_depth") : nullptr;
  published_ = processed_;
  if (obs_.profiler != nullptr) {
    telemetry::Profiler& prof = *obs_.profiler;
    const auto queue = prof.node(obs_.profile_parent, "queue");
    prof_push_ = prof.node(queue, "push");
    prof_pop_ = prof.node(queue, "pop");
    prof_max_depth_ = prof.node(queue, "max_depth");
    prof_handle_ = prof.node(obs_.profile_parent, "handle");
  }
  comp_events_.clear();
  comp_gap_.clear();
  comp_last_.clear();
  prof_comp_node_.clear();
  prof_op_node_.clear();
  for (std::uint32_t i = 0; i < components_.size(); ++i) cover(i);
}

void Simulation::cover(std::uint32_t i) {
  if (obs_.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *obs_.metrics;
    const std::string base = "sim/c" + std::to_string(i) + "_" +
                             components_[i]->telemetry_label();
    comp_events_.push_back(&reg.counter(telemetry::path_join(base, "events")));
    comp_gap_.push_back(&reg.histogram(telemetry::path_join(base, "gap_ps")));
    comp_last_.push_back(0);
  }
  if (obs_.profiler != nullptr) {
    // Keyed by type label, so replicated components (16 worker cores, N
    // TGUs) aggregate into one node each — the profile answers "where do
    // the cycles go per *kind* of unit", which is what partitioning needs.
    prof_comp_node_.push_back(
        obs_.profiler->node(prof_handle_, components_[i]->telemetry_label()));
    prof_op_node_.emplace_back();
  }
}

void Simulation::flush_run_metrics() {
  if (m_q_max_depth_ == nullptr) return;
  publish_events();
  m_q_max_depth_->set(static_cast<std::int64_t>(queue_.max_depth()));
}

void Simulation::publish_events() {
  if (m_events_ == nullptr) return;
  m_events_->inc(processed_ - published_);
  published_ = processed_;
}

void Simulation::sample_to(Tick t) {
  if (t < obs_.timeline->next_sample()) return;
  publish_events();
  obs_.timeline->sample_until(t);
}

void Simulation::observe_slow(const Event& ev) {
  m_advance_->record(static_cast<std::uint64_t>(ev.t - now_));
  if (ev.comp < comp_events_.size()) {
    comp_events_[ev.comp]->inc();
    comp_gap_[ev.comp]->record(
        static_cast<std::uint64_t>(ev.t - comp_last_[ev.comp]));
    comp_last_[ev.comp] = ev.t;
  }
}

}  // namespace nexus
