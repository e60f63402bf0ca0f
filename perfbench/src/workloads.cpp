// The benchmark workloads (plus the tiny self-test one) and their set-up:
// trace and arrival generation, ideal baselines and manager construction,
// each timed from outside as one span per public call.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "bench.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace perfbench {

using nexus::harness::ManagerSpec;

namespace {

constexpr std::uint32_t kClosedCores = 32;

// Open-loop tenants. The offered rates are pinned to what
// bench/ablation_tenancy derives from its saturation probe on this manager
// shape (400 tasks drained in 131.575 us, ~3.04 M tasks/s): the heavy bursty
// tenant offers 0.6x (~1.82 M tasks/s) and the light Poisson tenants share
// 0.2x (~9.65 k tasks/s each at 64 tenants). The ablation re-probes on every
// run, so its load moves with the code under test; these constants do not.
constexpr double kSaturationHz = 400.0 / 131.575e-6;
constexpr double kHeavyHz = 0.6 * kSaturationHz;
constexpr double kLightShareHz = 0.2 * kSaturationHz;
// The heavy stream's arrival seed is fixed (the ablation's): its backlog
// sits near saturation, so its latency quantiles move by a third between
// burst patterns. --seed draws the light streams.
constexpr std::uint64_t kHeavySeed = 0x7E4A57;

/// splitmix64: per-tenant arrival seeds from the benchmark seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string row_label(const std::string& what, const ManagerSpec& spec,
                      const nexus::RuntimeConfig& rc) {
  return what + "|" + spec.label + "|" +
         nexus::harness::topology_label(spec, rc) + "|c" +
         std::to_string(rc.workers);
}

Row closed_row(DriverKind driver, std::vector<std::string> traces,
               const ManagerSpec& spec, std::uint32_t cores,
               nexus::noc::TopologyKind fabric) {
  Row r;
  r.driver = driver;
  r.spec = spec;
  r.spec.sharp.noc.kind = fabric;
  r.config.workers = cores;
  r.config.noc.kind = fabric;
  std::string what = traces.front();
  for (std::size_t i = 1; i < traces.size(); ++i) what += "+" + traces[i];
  r.traces = std::move(traces);
  r.label = row_label(what, r.spec, r.config);
  return r;
}

Workload table2_closed() {
  Workload w;
  for (const char* t :
       {"c-ray", "rot-cc", "sparselu", "streamcluster", "h264dec-1x1-10f",
        "h264dec-2x2-10f", "h264dec-4x4-10f", "h264dec-8x8-10f", "gaussian-1000"}) {
    for (const ManagerSpec& spec :
         {ManagerSpec::nexussharp(6), ManagerSpec::nexuspp_default()}) {
      w.rows.push_back(closed_row(DriverKind::kTrace, {t}, spec, kClosedCores,
                                  nexus::noc::TopologyKind::kIdeal));
    }
  }
  w.rows.push_back(closed_row(
      DriverKind::kMultiApp,
      {"sparselu", "h264dec-4x4-10f", "gaussian-500", "rot-cc"},
      ManagerSpec::nexussharp(6), kClosedCores,
      nexus::noc::TopologyKind::kIdeal));
  return w;
}

Workload noc_mesh() {
  Workload w;
  for (const nexus::noc::TopologyKind fabric :
       {nexus::noc::TopologyKind::kMesh, nexus::noc::TopologyKind::kTorus}) {
    for (const char* t : {"h264dec-8x8-10f", "gaussian-250", "sparselu"}) {
      for (const std::uint32_t cores : {8u, 32u}) {
        w.rows.push_back(closed_row(DriverKind::kTrace, {t},
                                    ManagerSpec::nexussharp(6), cores, fabric));
      }
    }
  }
  return w;
}

Row tenants_row(std::uint32_t tenants) {
  Row r;
  r.driver = DriverKind::kTenants;
  r.spec = ManagerSpec::nexussharp(4, 100.0);
  r.spec.sharp.arbiter_clusters = 2;
  r.spec.sharp.pool_capacity = 48;
  r.spec.sharp.tenancy.tenants = tenants;
  r.spec.sharp.tenancy.quota.pool = 8;
  r.spec.sharp.tenancy.weighted = true;
  r.spec.sharp.tenancy.weights.assign(tenants, 1);
  r.spec.sharp.tenancy.weights[0] = 4;
  r.spec.label += "-wrr";
  r.config.workers = 8;
  r.label = row_label(std::to_string(tenants) + "-tenants", r.spec, r.config);
  return r;
}

Workload tenants_open() {
  Workload w;
  w.tenants = 64;
  w.light_tasks = 800;
  w.rows.push_back(tenants_row(w.tenants));
  return w;
}

/// Every driver, manager family and check at a tiny size, for the
/// self-test (see README.md); not one of the benchmark's workloads.
Workload smoke() {
  Workload w;
  for (const ManagerSpec& spec :
       {ManagerSpec::nexussharp(6), ManagerSpec::nexuspp_default()}) {
    w.rows.push_back(closed_row(DriverKind::kTrace, {"h264dec-8x8-10f"}, spec, 8,
                                nexus::noc::TopologyKind::kIdeal));
  }
  w.rows.push_back(closed_row(DriverKind::kTrace, {"gaussian-250"},
                              ManagerSpec::nexussharp(6), 8,
                              nexus::noc::TopologyKind::kMesh));
  w.rows.push_back(closed_row(DriverKind::kMultiApp,
                              {"h264dec-8x8-10f", "gaussian-250"},
                              ManagerSpec::nexussharp(6), 8,
                              nexus::noc::TopologyKind::kIdeal));
  w.tenants = 8;
  w.light_tasks = 20;
  w.rows.push_back(tenants_row(w.tenants));
  return w;
}

}  // namespace

const char* driver_call(DriverKind d) {
  switch (d) {
    case DriverKind::kTrace:
      return "run_trace";
    case DriverKind::kMultiApp:
      return "run_multi_app";
    case DriverKind::kTenants:
      return "run_tenants";
  }
  return "?";
}

std::vector<std::string> workload_names() {
  return {"table2-closed", "noc-mesh", "tenants-open"};
}

bool define_workload(const std::string& name, Workload* out) {
  if (name == "table2-closed") *out = table2_closed();
  else if (name == "noc-mesh") *out = noc_mesh();
  else if (name == "tenants-open") *out = tenants_open();
  else if (name == "smoke") *out = smoke();
  else return false;
  return true;
}

Tick Inputs::baseline(const Row& row) const {
  if (row.driver == DriverKind::kTenants) return tenant_baseline;
  Tick sum = 0;
  for (const std::string& t : row.traces) sum += baselines.at(t);
  return sum;
}

Inputs generate_inputs(const Workload& w, std::uint64_t seed, SpanLog& log,
                       SetupTimes* times) {
  Inputs in;
  std::vector<std::string> names;  // every trace the rows replay, once
  for (const Row& row : w.rows)
    for (const std::string& t : row.traces)
      if (std::find(names.begin(), names.end(), t) == names.end()) names.push_back(t);
  for (const std::string& name : names) {
    Timed span(log, "workloads::make_workload(" + name + ")");
    nexus::Trace tr = nexus::workloads::make_workload(name);
    times->gen_s += span.stop();
    in.traces.emplace(name, std::move(tr));
  }
  if (w.tenants > 1) {
    // Both stream kinds span the same horizon (light tasks / light rate).
    const double light_hz = kLightShareHz / (w.tenants - 1);
    const auto heavy_tasks = static_cast<std::uint64_t>(
        std::llround(kHeavyHz / light_hz * static_cast<double>(w.light_tasks)));
    in.tenant_traces.reserve(w.tenants);
    std::vector<std::vector<Tick>> releases;
    for (std::uint32_t t = 0; t < w.tenants; ++t) {
      nexus::workloads::ArrivalConfig c;
      c.kernel = "gaussian-250";
      c.clients = 1;
      c.chain_fraction = 0.0;
      c.seed = t == 0 ? kHeavySeed : mix_seed(seed, t);
      c.process = t == 0 ? nexus::workloads::ArrivalProcess::kBursty
                         : nexus::workloads::ArrivalProcess::kPoisson;
      c.rate_hz = t == 0 ? kHeavyHz : light_hz;
      c.tasks = t == 0 ? heavy_tasks : w.light_tasks;
      const std::string who = "tenant" + std::to_string(t);
      Timed gen(log, "workloads::generate_arrivals(" + who + ")");
      nexus::workloads::ArrivalSchedule s = nexus::workloads::generate_arrivals(c);
      times->gen_s += gen.stop();
      Timed make(log, "workloads::make_serving_trace(" + who + ")");
      in.tenant_traces.push_back(nexus::workloads::make_serving_trace(s));
      times->gen_s += make.stop();
      releases.push_back(std::move(s.submission.release));
    }
    for (std::uint32_t t = 0; t < w.tenants; ++t)
      in.streams.push_back({&in.tenant_traces[t], std::move(releases[t])});
  }
  for (const auto& [name, tr] : in.traces) {
    Timed span(log, "harness::ideal_baseline(" + name + ")");
    const Tick b = nexus::harness::ideal_baseline(tr);
    times->baseline_s += span.stop();
    in.baselines.emplace(name, b);
  }
  for (std::size_t t = 0; t < in.tenant_traces.size(); ++t) {
    Timed span(log, "harness::ideal_baseline(tenant" + std::to_string(t) + ")");
    in.tenant_baseline += nexus::harness::ideal_baseline(in.tenant_traces[t]);
    times->baseline_s += span.stop();
  }
  return in;
}

std::unique_ptr<nexus::TaskManagerModel> build_manager(const Row& row, SpanLog& log,
                                                       double* seconds) {
  Timed span(log, "harness::make_manager(" + row.label + ")");
  std::unique_ptr<nexus::TaskManagerModel> m = nexus::harness::make_manager(row.spec);
  *seconds += span.stop();
  return m;
}

Managers make_managers(const Workload& w, SpanLog& log, double* seconds) {
  Managers out;
  for (const Row& row : w.rows) out.push_back(build_manager(row, log, seconds));
  return out;
}

}  // namespace perfbench
