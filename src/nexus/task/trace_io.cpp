#include "nexus/task/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

namespace nexus {
namespace {

const char* dir_name(Dir d) {
  switch (d) {
    case Dir::kIn: return "in";
    case Dir::kOut: return "out";
    case Dir::kInOut: return "inout";
  }
  return "?";
}

std::string wide_addr(std::size_t line_no) {
  return "address wider than 48 bits on line " + std::to_string(line_no);
}

bool parse_dir(const std::string& s, Dir* out) {
  if (s == "in") { *out = Dir::kIn; return true; }
  if (s == "out") { *out = Dir::kOut; return true; }
  if (s == "inout") { *out = Dir::kInOut; return true; }
  return false;
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os << "trace " << (trace.name().empty() ? "unnamed" : trace.name()) << "\n";
  // Emit each task declaration immediately before its submit event so the
  // file reads in program order.
  for (const auto& ev : trace.events()) {
    switch (ev.op()) {
      case TraceOp::kSubmit: {
        const auto& t = trace.task(ev.task());
        os << "task " << t.id << ' ' << t.fn << ' ' << t.duration << ' '
           << t.params.size();
        for (const auto& p : t.params)
          os << ' ' << std::hex << p.addr << std::dec << ' ' << dir_name(p.dir);
        os << "\nsubmit " << t.id << "\n";
        break;
      }
      case TraceOp::kTaskwait:
        os << "taskwait\n";
        break;
      case TraceOp::kTaskwaitOn:
        os << "taskwait_on " << std::hex << ev.addr() << std::dec << "\n";
        break;
    }
  }
}

bool write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream f(path);
  if (!f) return false;
  write_trace(f, trace);
  return static_cast<bool>(f);
}

bool read_trace(std::istream& is, Trace* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  Trace trace;
  std::string line;
  // Pending declared task, keyed by the file's task id; the rebuilt trace
  // re-assigns ids in submission order, so we map old -> new.
  bool have_pending = false;
  std::uint64_t pending_file_id = 0;
  std::uint32_t pending_fn = 0;
  Tick pending_dur = 0;
  ParamList pending_params;

  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kw;
    ss >> kw;
    if (kw == "trace") {
      std::string name;
      ss >> name;
      trace.set_name(name);
    } else if (kw == "task") {
      std::uint64_t id = 0;
      std::uint32_t fn = 0;
      Tick dur = 0;
      std::size_t np = 0;
      if (!(ss >> id >> fn >> dur >> np) || np == 0 || np > kMaxParams)
        return fail("bad task line " + std::to_string(line_no));
      ParamList params;
      for (std::size_t i = 0; i < np; ++i) {
        Addr a = 0;
        std::string d;
        if (!(ss >> std::hex >> a >> std::dec >> d))
          return fail("bad param on line " + std::to_string(line_no));
        if (a > kAddrMask) return fail(wide_addr(line_no));
        Dir dir{};
        if (!parse_dir(d, &dir)) return fail("bad direction on line " + std::to_string(line_no));
        params.push_back(Param{a, dir});
      }
      TaskDescriptor probe;
      probe.duration = dur;
      probe.params = params;
      if (!validate_task(probe))
        return fail("invalid task (negative duration or duplicate address) on line " +
                    std::to_string(line_no));
      have_pending = true;
      pending_file_id = id;
      pending_fn = fn;
      pending_dur = dur;
      pending_params = params;
    } else if (kw == "submit") {
      std::uint64_t id = 0;
      if (!(ss >> id)) return fail("bad submit line " + std::to_string(line_no));
      if (!have_pending || id != pending_file_id)
        return fail("submit without matching task declaration, line " +
                    std::to_string(line_no));
      trace.submit(pending_fn, pending_dur, pending_params);
      have_pending = false;
    } else if (kw == "taskwait") {
      trace.taskwait();
    } else if (kw == "taskwait_on") {
      Addr a = 0;
      if (!(ss >> std::hex >> a)) return fail("bad taskwait_on line " + std::to_string(line_no));
      if (a > kAddrMask) return fail(wide_addr(line_no));
      trace.taskwait_on(a);
    } else {
      return fail("unknown keyword '" + kw + "' on line " + std::to_string(line_no));
    }
  }
  std::string verr;
  if (!trace.validate(&verr)) return fail("trace invalid: " + verr);
  *out = std::move(trace);
  return true;
}

bool read_trace_file(const std::string& path, Trace* out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return read_trace(f, out, error);
}

}  // namespace nexus
