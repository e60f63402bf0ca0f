#include "nexus/task/task.hpp"

namespace nexus {

bool validate_task(const TaskDescriptor& t) {
  if (t.params.empty() || t.params.size() > kMaxParams) return false;
  if (t.duration < 0) return false;
  for (std::size_t i = 0; i < t.params.size(); ++i) {
    for (std::size_t j = i + 1; j < t.params.size(); ++j) {
      if (t.params[i].addr == t.params[j].addr) return false;
    }
  }
  return true;
}

}  // namespace nexus
