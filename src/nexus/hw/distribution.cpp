#include "nexus/hw/distribution.hpp"

namespace nexus::hw {

const char* to_string(DistributionPolicy p) {
  switch (p) {
    case DistributionPolicy::kXorFold: return "xor-fold";
    case DistributionPolicy::kLowBits: return "low-bits";
    case DistributionPolicy::kModulo: return "modulo";
  }
  return "?";
}

}  // namespace nexus::hw
