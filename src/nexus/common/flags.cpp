#include "nexus/common/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace nexus {
namespace {

[[noreturn]] void usage_and_exit(const std::map<std::string, std::string>& spec,
                                 const std::string& bad) {
  std::fprintf(stderr, "unknown or malformed flag: %s\nsupported flags:\n", bad.c_str());
  for (const auto& [k, help] : spec)
    std::fprintf(stderr, "  --%s  %s\n", k.c_str(), help.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::map<std::string, std::string>& spec) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_and_exit(spec, arg);
    arg = arg.substr(2);
    std::string key;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (spec.find(key) == spec.end()) usage_and_exit(spec, "--" + key);
    values_[key] = value;
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : std::strtoll(it->second.c_str(), nullptr, 10);
}

bool Flags::get_bool(const std::string& key, bool dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Flags::get_list(
    const std::string& key, const std::vector<std::string>& dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  std::vector<std::string> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& dflt) const {
  if (!has(key)) return dflt;
  std::vector<std::int64_t> out;
  for (const std::string& item : get_list(key, {}))
    out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  return out;
}

}  // namespace nexus
