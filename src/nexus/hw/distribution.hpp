// The Nexus# distribution function (Section IV-B).
//
// Incoming 48-bit addresses are steered to one of n task graphs in a single
// cycle. The paper's function XOR-folds the low 20 address bits in 5-bit
// blocks and reduces modulo the task-graph count; speed and fairness are the
// two properties the paper demands of it. It maps an address to one fixed
// graph: dependency tracking requires all accesses to one address to meet in
// one task graph (Section IV-A).
#pragma once

#include <cstdint>

#include "nexus/common/bit_ops.hpp"
#include "nexus/task/task.hpp"

namespace nexus::hw {

class Distributor {
 public:
  explicit Distributor(std::uint32_t num_targets) : n_(num_targets) {
    NEXUS_ASSERT_MSG(num_targets >= 1 && num_targets <= 32,
                     "the 5-bit fold supports up to 32 task graphs");
  }

  /// Target task graph for this address.
  [[nodiscard]] std::uint32_t target(Addr addr) const {
    return xor_fold20_5(addr) % n_;
  }

 private:
  std::uint32_t n_;
};

}  // namespace nexus::hw
