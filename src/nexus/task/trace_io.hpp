// Text serialization of traces.
//
// Format (line-oriented, '#' comments):
//   trace <name>
//   task <id> <fn> <duration_ps> <nparams> (<addr_hex> <in|out|inout>)*
//   submit <id>
//   taskwait
//   taskwait_on <addr_hex>
// Tasks are declared before their submit event (the generator emits them
// adjacently). Addresses are at most 48 bits wide (kAddrMask); read_trace
// rejects a wider one, or an invalid task, naming its line. The format is meant for inspection and for feeding external
// tools, not for performance; benches generate traces in memory.
#pragma once

#include <iosfwd>
#include <string>

#include "nexus/task/trace.hpp"

namespace nexus {

void write_trace(std::ostream& os, const Trace& trace);
bool write_trace_file(const std::string& path, const Trace& trace);

/// Parse a trace; returns false (and sets *error) on malformed input.
bool read_trace(std::istream& is, Trace* out, std::string* error = nullptr);
bool read_trace_file(const std::string& path, Trace* out, std::string* error = nullptr);

}  // namespace nexus
