#pragma once

#include <cstddef>
#include <cstdint>

#include "nexus/sim/event.hpp"

namespace nexus {

class Simulation;

/// A simulation component receives the events addressed to it.
/// Components are registered with the Simulation, which assigns their id.
class Component {
 public:
  virtual ~Component() = default;
  virtual void handle(Simulation& sim, const Event& ev) = 0;

  /// Short identifier used in telemetry paths ("sim/c3_arbiter/..."); must
  /// be a string literal or otherwise outlive the component.
  [[nodiscard]] virtual const char* telemetry_label() const { return "comp"; }

  /// Name of event op `op` for per-op profile nodes ("handle;tg;new_arg");
  /// a string literal, or nullptr to fall back to "op<N>".
  [[nodiscard]] virtual const char* op_label(std::uint32_t /*op*/) const {
    return nullptr;
  }
};

/// Component::op_label() over a table of names indexed by op code. `Count`
/// is the op enum's trailing count enumerator (kOpCount), so a table out of
/// step with its enum fails the build.
template <auto Count, std::size_t N>
constexpr const char* op_label_in(const char* const (&names)[N],
                                  std::uint32_t op) {
  static_assert(N == static_cast<std::size_t>(Count), "one name per op");
  return op < N ? names[op] : nullptr;
}

}  // namespace nexus
