// Manager labels back into ManagerSpecs: the one parser behind
// nexus-bench's experiment table.
#include <cstdlib>
#include <string>

#include "nexus/harness/experiment.hpp"

namespace nexus::harness {

bool parse_manager(const std::string& name, ManagerSpec* out) {
  if (name == "ideal") {
    *out = ManagerSpec::ideal();
    return true;
  }
  if (name == "nanos") {
    *out = ManagerSpec::nanos_default();
    return true;
  }
  if (name == "nexus++") {
    *out = ManagerSpec::nexuspp_default();
    return true;
  }
  const std::string prefix = "nexus#-";
  if (name.rfind(prefix, 0) != 0) return false;
  std::size_t pos = prefix.size();
  std::uint32_t tgs = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    tgs = tgs * 10 + static_cast<std::uint32_t>(name[pos] - '0');
    ++pos;
  }
  const std::string rest = name.substr(pos);
  if (tgs == 0) return false;
  if (rest.empty() || rest == "TG") {
    *out = ManagerSpec::nexussharp(tgs);
    return true;
  }
  if (rest.size() <= 6 || rest.rfind("TG@", 0) != 0 ||
      rest.compare(rest.size() - 3, 3, "MHz") != 0)
    return false;
  const std::string freq = rest.substr(3, rest.size() - 6);
  char* end = nullptr;
  const double mhz = std::strtod(freq.c_str(), &end);
  if (end != freq.c_str() + freq.size() || !(mhz > 0.0)) return false;
  *out = ManagerSpec::nexussharp(tgs, mhz);
  out->label = name;
  return true;
}

}  // namespace nexus::harness
