// Per-layer tallies, exact quantiles and the span log.
#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// The component label of a "sim/c<i>_<label>/events" path, or "".
std::string_view component_of(std::string_view path) {
  constexpr std::string_view kPrefix = "sim/c";
  constexpr std::string_view kSuffix = "/events";
  if (path.substr(0, kPrefix.size()) != kPrefix || !ends_with(path, kSuffix))
    return {};
  const std::string_view mid =
      path.substr(kPrefix.size(), path.size() - kPrefix.size() - kSuffix.size());
  const std::size_t us = mid.find('_');
  return us == std::string_view::npos ? std::string_view{} : mid.substr(us + 1);
}

void merge_into(nexus::telemetry::HistogramData& into,
                const nexus::telemetry::HistogramData& h) {
  if (h.count == 0) return;
  into.min = into.count == 0 ? h.min : std::min(into.min, h.min);
  into.max = std::max(into.max, h.max);
  into.count += h.count;
  into.sum += h.sum;
  for (const auto& [index, n] : h.buckets) {
    auto it = std::lower_bound(
        into.buckets.begin(), into.buckets.end(), index,
        [](const auto& b, std::uint32_t i) { return b.first < i; });
    if (it != into.buckets.end() && it->first == index) it->second += n;
    else into.buckets.insert(it, {index, n});
  }
}

// Why a metric has no value. The first three are gaps in the program that
// a unified host driver should close; the rest mark layers a workload does
// not exercise.
constexpr const char* kNoSimCounters =
    "run_tenants binds no sim/* counters (TenantDriver never calls "
    "Simulation::bind_telemetry)";
constexpr const char* kNoProfiler = "run_tenants ignores RuntimeConfig::profiler";
constexpr const char* kNoQueueWait = "run_tenants records no runtime/queue_wait_ps";
constexpr const char* kNoUtilization =
    "run_tenants reports no utilization or per-core busy time";
constexpr const char* kNoNexusPP = "not exercised: no Nexus++ rows in this workload";
constexpr const char* kNoNackHolds =
    "not exercised: only run_tenants holds a stream on a NACK";

}  // namespace

double speed_probe() {
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 22);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = i * 11;
    return t;
  }();
  const std::size_t mask = table.size() - 1;
  const auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 256; ++i) heap.push(next() & 0xffffff);
  for (std::uint64_t i = 0; i < 150000; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    acc += table[(r >> 3) & mask];
    table[(t * 2654435761u) & mask] += i;
    heap.push(t + (r & 0xfff));
  }
  for (std::uint64_t i = 0; i < 2500000; ++i) {
    const std::uint64_t r = next();
    if (r & 1) acc += r >> 3;
    else acc ^= r * 3;
    if ((r & 6) == 2) acc += i;
  }
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  static volatile std::uint64_t sink = 0;
  sink = sink + acc;
  return s;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

double SpanLog::close(std::int32_t id) {
  const std::int64_t t = now_ns();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

Quantile exact_quantile(std::vector<Tick>& v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least ceil(q*n) samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const Tick x = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  out.value = static_cast<double>(x);
  out.beyond = static_cast<std::uint64_t>(v.end() - std::upper_bound(v.begin(), v.end(), x));
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return kMissing;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void LayerTally::add_registry_row(const Row& row, const RowRun& run,
                                  const nexus::telemetry::Snapshot& snap) {
  using nexus::telemetry::MetricKind;
  const auto tasks = static_cast<double>(run.tasks);
  has_nexuspp_ = has_nexuspp_ || row.nexuspp();
  has_tenants_ = has_tenants_ || row.driver == DriverKind::kTenants;
  sum_["tasks"] += tasks;
  if (!row.nexuspp()) sum_["sharp_tasks"] += tasks;
  const bool counted = row.driver == DriverKind::kTrace;  // binds sim/*
  if (counted) {
    sum_["trace_tasks"] += tasks;
    sum_["events"] += static_cast<double>(run.events);
    sum_[row.nexuspp() ? "npp_trace_tasks" : "sharp_trace_tasks"] += tasks;
  }
  if (row.driver == DriverKind::kTenants) {
    sum_["tenant_tasks"] += tasks;
    for (const nexus::TenantLatency& t : run.tenants)
      sum_["nack_holds"] += static_cast<double>(t.nack_holds);
  }
  if (!std::isnan(run.utilization)) {
    sum_["util_weighted"] += run.utilization * tasks;
    sum_["util_tasks"] += tasks;
  }

  for (const nexus::telemetry::MetricValue& v : snap.values) {
    const std::string_view p = v.path;
    const auto c = static_cast<double>(v.counter);
    const auto g = static_cast<double>(v.gauge);
    if (v.kind == MetricKind::kCounter) {
      if (const std::string_view comp = component_of(p); !comp.empty())
        sum_["ev." + std::string(comp)] += c;
      else if (ends_with(p, "/noc/messages")) {
        sum_["noc.messages"] += c;
        if (counted) sum_["trace_noc.messages"] += c;
      } else if (ends_with(p, "/noc/flits")) sum_["noc.flits"] += c;
      else if (ends_with(p, "/noc/stall_ps")) sum_["noc.stall_ps"] += c;
      else if (ends_with(p, "arbiter/conflicts")) sum_["conflicts"] += c;
      else if (ends_with(p, "arbiter/retries")) sum_["retries"] += c;
      else if (ends_with(p, "arbiter/meta_parks")) sum_["meta_parks"] += c;
      else if (ends_with(p, "/table/stalls")) sum_["table_stalls"] += c;
      else if (ends_with(p, "/table/chain_hops")) sum_["chain_hops"] += c;
      else if (ends_with(p, "dep_counts/parked")) sum_["dep_parked"] += c;
      else if (p == "nexus#/admission/nacks") sum_["nacks"] += c;
      else if (p == "nexus#/root/grants") sum_["root_grants"] += c;
      else if (p == "nexus#/root/merges") sum_["root_merges"] += c;
    } else if (v.kind == MetricKind::kGauge) {
      if (p == "sim/queue/max_depth") max_["queue_max_depth"] = std::max(max_["queue_max_depth"], g);
      else if (p == "sim/queue/arena_allocs") sum_["arena_allocs"] += g;
      else if (ends_with(p, "/pool/peak")) max_["pool_peak"] = std::max(max_["pool_peak"], g);
    } else if (ends_with(p, "/noc/hops")) {
      sum_["noc.hop_sum"] += static_cast<double>(v.hist.sum);
      sum_["noc.hop_count"] += static_cast<double>(v.hist.count);
    } else if (p == "runtime/queue_wait_ps") {
      merge_into(queue_wait_, v.hist);
    }
  }
}

void LayerTally::set_profile(const nexus::telemetry::ProfileData& prof) {
  for (std::uint32_t i = 1; i < prof.nodes.size(); ++i) {
    std::string path = prof.path_of(i);
    if (path.rfind("all;", 0) == 0) path.erase(0, 4);
    prof_[path] += static_cast<double>(prof.nodes[i].self_ns);
  }
}

std::vector<Metric> LayerTally::metrics() const {
  auto get = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto sum = [&](const std::string& k) { return get(sum_, k); };
  auto ns = [&](const std::string& k) { return get(prof_, k); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : kMissing; };

  const double trace_tasks = sum("trace_tasks");
  const double events = sum("events");
  const bool sim_counted = trace_tasks > 0;  // false only on tenants-open
  const bool profiled = sim_counted;
  const double sharp_trace_tasks = sum("sharp_trace_tasks");
  const double npp_trace_tasks = sum("npp_trace_tasks");

  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    const char* why_missing = nullptr) {
    Metric m{std::move(name), value, std::move(unit), ""};
    if (why_missing != nullptr) {
      m.value = kMissing;
      m.missing = why_missing;
    }
    out.push_back(std::move(m));
  };
  const char* no_sim = sim_counted ? nullptr : kNoSimCounters;
  const char* no_prof = profiled ? nullptr : kNoProfiler;

  // workloads / harness: set-up calls.
  add("workloads.gen_s", setup.gen_s, "s");
  add("harness.make_manager_s", setup.make_manager_s, "s");
  add("harness.ideal_baseline_s", setup.baseline_s, "s");

  // sim: the DES kernel.
  add("sim.events_per_task", ratio(events, trace_tasks), "events/task", no_sim);
  add("sim.queue_ns_per_event",
      ratio(ns("run;queue;push") + ns("run;queue;pop"), events), "ns/event", no_prof);
  add("sim.queue_max_depth", get(max_, "queue_max_depth"), "events", no_sim);
  add("sim.arena_allocs", sum("arena_allocs"), "count", no_sim);

  // noc: manager and host interconnects.
  const double noc_events = sum("ev.noc");
  const double messages = sum("noc.messages");
  add("noc.events_per_task", ratio(noc_events, trace_tasks), "events/task", no_sim);
  add("noc.hops_per_msg", ratio(sum("noc.hop_sum"), sum("noc.hop_count")), "hops/msg");
  add("noc.flits_per_msg", ratio(sum("noc.flits"), messages), "flits/msg");
  add("noc.stall_ps_per_msg", ratio(sum("noc.stall_ps"), messages), "ps_sim/msg");
  add("noc.handle_ns_per_event", ns("run;handle;noc") / std::max(noc_events, 1.0),
      "ns/event", no_prof);
  double send_ns = 0.0;
  for (const auto& [path, self] : prof_)
    if (path.rfind("run;handle;noc;send:", 0) == 0) send_ns += self;
  add("noc.send_ns_per_msg", ratio(send_ns, sum("trace_noc.messages")), "ns/msg",
      no_prof);

  // nexussharp: the distributed manager's blocks.
  double sharp_events = 0.0;
  double sharp_ns = 0.0;
  for (const char* unit : {"io", "tg", "arbiter", "root"}) {
    const double ev = sum(std::string("ev.") + unit);
    sharp_events += ev;
    sharp_ns += ns(std::string("run;handle;") + unit);
    add(std::string("nexussharp.") + unit + "_events_per_task",
        ratio(ev, sharp_trace_tasks), "events/task", no_sim);
  }
  const double sharp_tasks = sum("sharp_tasks");
  add("nexussharp.conflicts_per_task", ratio(sum("conflicts"), sharp_tasks), "count/task");
  add("nexussharp.retries_per_task", ratio(sum("retries"), sharp_tasks), "count/task");
  add("nexussharp.meta_parks_per_task", ratio(sum("meta_parks"), sharp_tasks), "count/task");
  add("nexussharp.root_grants_per_task", ratio(sum("root_grants"), sharp_tasks), "count/task");
  add("nexussharp.root_merges_per_task", ratio(sum("root_merges"), sharp_tasks), "count/task");
  add("nexussharp.handle_ns_per_event", sharp_ns / std::max(sharp_events, 1.0),
      "ns/event", no_prof);

  // hw: tables, dependence counts, task pool, admission.
  const double tasks = sum("tasks");
  add("hw.table_stalls_per_task", ratio(sum("table_stalls"), tasks), "count/task");
  add("hw.chain_hops_per_task", ratio(sum("chain_hops"), tasks), "count/task");
  add("hw.dep_parked_per_task", ratio(sum("dep_parked"), tasks), "count/task");
  add("hw.pool_peak", get(max_, "pool_peak"), "entries");
  add("hw.nacks_per_task", ratio(sum("nacks"), tasks), "count/task");

  // nexuspp: the centralised baseline manager.
  const char* no_npp = has_nexuspp_ ? nullptr : kNoNexusPP;
  add("nexuspp.events_per_task", ratio(sum("ev.npp"), npp_trace_tasks), "events/task",
      no_npp);
  add("nexuspp.handle_ns_per_event",
      ratio(ns("run;handle;npp"), sum("ev.npp")), "ns/event", no_npp);

  // runtime: the host drivers.
  add("runtime.driver_events_per_task", ratio(sum("ev.driver"), trace_tasks),
      "events/task", no_sim);
  static constexpr const char* kRunNames[3] = {
      "runtime.run_trace_s", "runtime.run_multi_app_s", "runtime.run_tenants_s"};
  static constexpr const char* kNotCalled[3] = {
      "not exercised: this workload makes no run_trace call",
      "not exercised: this workload makes no run_multi_app call",
      "not exercised: this workload makes no run_tenants call"};
  for (int d = 0; d < 3; ++d)
    add(kRunNames[d], run_s[d], "s", ran[d] ? nullptr : kNotCalled[d]);
  add("runtime.dispatch_ns_per_task", ratio(ns("run;handle;driver;dispatch"), trace_tasks),
      "ns/task", no_prof);
  add("runtime.notify_ns_per_task", ratio(ns("run;handle;driver;notify"), trace_tasks),
      "ns/task", no_prof);
  add("runtime.run_self_ns_per_event", ratio(ns("run"), events), "ns/event", no_prof);
  add("runtime.queue_wait_p99_ps", queue_wait_.p99(), "ps_sim",
      queue_wait_.count > 0 || sim_counted ? nullptr : kNoQueueWait);
  add("runtime.nack_holds_per_task", ratio(sum("nack_holds"), sum("tenant_tasks")),
      "count/task", has_tenants_ ? nullptr : kNoNackHolds);
  add("runtime.utilization", ratio(sum("util_weighted"), sum("util_tasks")), "frac",
      sum("util_tasks") > 0 ? nullptr : kNoUtilization);
  add("runtime.validate_s", validate_s, "s");

  // telemetry: the profiled pass against the measured pass.
  add("telemetry.traced_overhead_x", traced_overhead_x, "x", no_prof);
  return out;
}

const std::vector<std::string>& result_layer_names() {
  static const std::vector<std::string> names = {
      "workloads.gen_s",
      "harness.make_manager_s",
      "harness.ideal_baseline_s",
      "noc.hops_per_msg",
      "noc.flits_per_msg",
      "noc.stall_ps_per_msg",
      "nexussharp.conflicts_per_task",
      "nexussharp.retries_per_task",
      "nexussharp.root_grants_per_task",
      "nexussharp.root_merges_per_task",
      "hw.table_stalls_per_task",
      "hw.chain_hops_per_task",
      "hw.dep_parked_per_task",
      "hw.pool_peak",
      "hw.nacks_per_task",
      "runtime.validate_s",
  };
  return names;
}

}  // namespace perfbench
