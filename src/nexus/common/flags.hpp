// Minimal command-line flag parser for bench/example binaries.
//
// Supports `--key=value` and `--key value`; unrecognized flags abort with a
// usage message so experiment invocations never silently ignore a typo.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nexus {

class Flags {
 public:
  /// Parse argv. `spec` maps flag name -> help text; any flag outside the
  /// spec is an error.
  Flags(int argc, const char* const* argv,
        const std::map<std::string, std::string>& spec);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt) const;

  /// Comma-separated list, empty items dropped, e.g. --workloads=a,b.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const std::vector<std::string>& dflt) const;

  /// Comma-separated integer list, e.g. --cores=1,2,4,8.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& dflt) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace nexus
