// The Nexus# distribution function (Section IV-B).
//
// Incoming 48-bit addresses are steered to one of n task graphs in a single
// cycle. The paper's function XOR-folds the low 20 address bits in 5-bit
// blocks and reduces modulo the task-graph count; the low-bits and modulo
// alternatives exist for the distribution ablation (speed and fairness are
// the two properties the paper demands of this function). Every policy maps
// an address to one fixed graph: dependency tracking requires all accesses
// to one address to meet in one task graph (Section IV-A).
#pragma once

#include <cstdint>
#include <string>

#include "nexus/common/bit_ops.hpp"
#include "nexus/task/task.hpp"

namespace nexus::hw {

enum class DistributionPolicy : std::uint8_t {
  kXorFold = 0,  ///< the paper's function: xor of 5-bit blocks, mod n
  kLowBits = 1,  ///< addr[4:0] mod n (no folding)
  kModulo = 2,   ///< whole low-20-bit value mod n
};

const char* to_string(DistributionPolicy p);

class Distributor {
 public:
  Distributor(DistributionPolicy policy, std::uint32_t num_targets)
      : policy_(policy), n_(num_targets) {
    NEXUS_ASSERT_MSG(num_targets >= 1 && num_targets <= 32,
                     "the 5-bit fold supports up to 32 task graphs");
  }

  [[nodiscard]] std::uint32_t num_targets() const { return n_; }
  [[nodiscard]] DistributionPolicy policy() const { return policy_; }

  /// Target task graph for this address.
  [[nodiscard]] std::uint32_t target(Addr addr) const {
    switch (policy_) {
      case DistributionPolicy::kXorFold:
        return xor_fold20_5(addr) % n_;
      case DistributionPolicy::kLowBits:
        return static_cast<std::uint32_t>(addr & 0x1F) % n_;
      case DistributionPolicy::kModulo:
        return static_cast<std::uint32_t>(addr & 0xFFFFF) % n_;
    }
    return 0;
  }

 private:
  DistributionPolicy policy_;
  std::uint32_t n_;
};

}  // namespace nexus::hw
