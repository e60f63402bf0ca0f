// Task descriptors: the unit of work handed to a task manager.
//
// A task mirrors an OmpSs task instance: a function identifier, a list of
// parameters (48-bit memory addresses tagged in/out/inout — the memory
// footprint the pragma declares), and an execution duration taken from the
// workload trace. Descriptors are trivially copyable and compact because the
// hardware models stream them through bounded queues by value.
//
// Layout (80 bytes, pinned by static_asserts below). A parameter is one
// 64-bit word: the 48-bit address the interface transmits in two 32-bit
// packets (noc::kParamBytes = 8) and its direction in the byte above it. Six
// of them plus a one-byte count make the 56-byte ParamList; id, fn, tenant
// and duration take the other 24. Large traces keep every descriptor in
// memory (Table II's streamcluster alone has 652,776 tasks), and the managers'
// task pools and each tenant's placed head copy them, so the word per
// parameter is what sizes a run's memory and its trace set-up.
#pragma once

#include <cstdint>

#include "nexus/common/assert.hpp"
#include "nexus/common/inline_vec.hpp"
#include "nexus/sim/time.hpp"

namespace nexus {

using TaskId = std::uint32_t;
constexpr TaskId kInvalidTask = ~0u;

/// 48-bit memory addresses, as transmitted over the paper's PCIe-style
/// interface (two 32-bit packets per address).
using Addr = std::uint64_t;
constexpr Addr kAddrMask = (1ULL << 48) - 1;

/// Parameter direction from the OmpSs pragma.
enum class Dir : std::uint8_t {
  kIn = 0,    ///< input(...)  — read
  kOut = 1,   ///< output(...) — write
  kInOut = 2  ///< inout(...)  — read-modify-write
};

constexpr bool is_write(Dir d) { return d != Dir::kIn; }

/// One entry of a task's input/output list, packed into one 64-bit word.
struct Param {
  Addr addr : 48 = 0;
  Dir dir = Dir::kIn;

  Param() = default;
  /// Aborts on an address wider than kAddrMask: the 48-bit field would
  /// otherwise truncate it silently. Inputs that may carry such addresses
  /// (trace files) reject them before they get here.
  Param(Addr a, Dir d) : addr(a & kAddrMask), dir(d) {
    NEXUS_ASSERT_MSG((a & ~kAddrMask) == 0, "parameter address wider than 48 bits");
  }

  friend bool operator==(const Param&, const Param&) = default;
};
static_assert(sizeof(Param) == 8);

/// Maximum parameters per task. The paper's benchmarks use 1-6 (h264dec);
/// the hardware models also rely on this bound for their buffer sizing.
constexpr std::size_t kMaxParams = 6;

using ParamList = InlineVec<Param, kMaxParams>;

struct TaskDescriptor {
  TaskId id = kInvalidTask;
  std::uint32_t fn = 0;       ///< function-pointer identifier
  /// Submitting tenant (multi-tenant co-management; see hw/tenancy.hpp).
  /// 0 for single-tenant runs — the managers only consult it when a
  /// TenancyConfig is enabled, so legacy traces stay bit-identical.
  std::uint16_t tenant = 0;
  Tick duration = 0;          ///< execution time on a worker core
  ParamList params;

  [[nodiscard]] std::size_t num_params() const { return params.size(); }
};
static_assert(sizeof(ParamList) == 56);
static_assert(sizeof(TaskDescriptor) == 80);

/// Validate a descriptor: at least one parameter, a non-negative duration,
/// and no duplicate address within one task (OmpSs merges duplicate
/// footprints; the generators never emit them and the hardware models assume
/// it). Addresses are 48-bit by construction (Param).
bool validate_task(const TaskDescriptor& t);

}  // namespace nexus
