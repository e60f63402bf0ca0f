// nexus-bench <experiment> [--flag[=value] ...]
//
// Runs one experiment of the table (bench.hpp). Without an experiment it
// lists the table, one tab-separated line per experiment: name, record file,
// record flags ("-" for none) and the artefact reproduced. Every experiment
// smoke-runs with --quick.
// scripts/check.sh reads that listing instead of naming experiments.
#include <cstdio>
#include <cstring>

#include "bench.hpp"

int main(int argc, char** argv) {
  using namespace nexus::bench;
  const Experiment* exp = nullptr;
  for (const Experiment& e : experiments())
    if (argc > 1 && std::strcmp(argv[1], e.name) == 0) exp = &e;
  if (exp == nullptr) {
    if (argc > 1) std::fprintf(stderr, "unknown experiment: %s\n", argv[1]);
    std::printf("usage: nexus-bench <experiment> [--flag[=value] ...]\n");
    for (const Experiment& e : experiments()) {
      const auto or_dash = [](const char* s) { return s && *s ? s : "-"; };
      const std::string record =
          e.bench != nullptr ? "BENCH_" + std::string(e.name) + ".json" : "-";
      std::printf("%s\t%s\t%s\t%s\n", e.name, record.c_str(),
                  or_dash(e.record_flags), e.artefact);
    }
    return argc > 1 ? 2 : 0;
  }
  const nexus::Flags flags(argc - 1, argv + 1, flag_spec());
  Run run(*exp, flags);
  return run.finish();
}
