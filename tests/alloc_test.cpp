// Heap allocations per simulated task. The managers' Task Pool, task-graph
// tables, Dep Counts table and arbiter buffers are fixed-size hardware
// structures (paper Section IV); the model keeps them in flat storage that
// is reused in place, so a run's allocations are set-up and high-water
// costs (the driver, the event queue, each table slot's first kick-off
// list) and do not grow with the task count. The replaced global operator
// new below counts every allocation this test binary makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "nexus/harness/experiment.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/workloads/workloads.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nexus {
namespace {

constexpr double kMaxAllocationsPerTask = 0.5;

/// Allocations run_trace makes per task for `spec` on 32 cores, with the
/// manager and host fabrics both of kind `fabric`.
double allocations_per_task(const std::string& workload,
                            harness::ManagerSpec spec,
                            noc::TopologyKind fabric) {
  const Trace trace = workloads::make_workload(workload);
  spec.sharp.noc.kind = fabric;
  const auto manager = harness::make_manager(spec);
  RuntimeConfig rc;
  rc.workers = 32;
  rc.noc.kind = fabric;
  const std::uint64_t before = g_allocations;
  const RunResult r = run_trace(trace, *manager, rc);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_GT(r.tasks, 0u);
  return static_cast<double>(allocations) / static_cast<double>(r.tasks);
}

void expect_allocation_free(const harness::ManagerSpec& spec,
                            noc::TopologyKind fabric) {
  for (const char* workload : {"gaussian-250", "sparselu"}) {
    const double per_task = allocations_per_task(workload, spec, fabric);
    EXPECT_LT(per_task, kMaxAllocationsPerTask) << workload;
    ::testing::Test::RecordProperty(std::string(workload) + "_per_task",
                                    std::to_string(per_task));
  }
}

TEST(HotPathAllocations, NexusSharpIdeal) {
  expect_allocation_free(harness::ManagerSpec::nexussharp(6),
                         noc::TopologyKind::kIdeal);
}

TEST(HotPathAllocations, NexusSharpMesh) {
  expect_allocation_free(harness::ManagerSpec::nexussharp(6),
                         noc::TopologyKind::kMesh);
}

TEST(HotPathAllocations, NexusPP) {
  expect_allocation_free(harness::ManagerSpec::nexuspp_default(),
                         noc::TopologyKind::kIdeal);
}

}  // namespace
}  // namespace nexus
