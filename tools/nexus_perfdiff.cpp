// nexus-perfdiff: compare two BENCH_*.json trajectory records exactly.
//
//   nexus-perfdiff <baseline.json> <candidate.json>
//
// The simulator is deterministic, so every candidate record must equal the
// baseline record at the same position in every field: join key, makespan,
// speedup, every metric (scalars and each histogram field) and the sampled
// timeline, with no exception. Each differing record prints its key and
// its first few differing fields as `path: base -> cand`; a timeline series
// prints the sim-time of its first divergence.
//
// Exit status: 0 no difference, 1 any difference, 2 usage/IO/parse error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nexus/harness/perfdiff.hpp"

namespace {

constexpr const char* kUsage =
    "usage: nexus-perfdiff <baseline.json> <candidate.json>\n"
    "Exits 1 unless every deterministic field of every record reproduces.\n";

bool load_records(const char* path,
                  std::vector<nexus::harness::BenchRecord>* out) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::string error = "cannot read the file";
  if (!in.is_open() ||
      !nexus::harness::parse_bench_records(text.str(), out, &error)) {
    std::fprintf(stderr, "nexus-perfdiff: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  // Any other option, or a file count other than two, is a usage error.
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::vector<nexus::harness::BenchRecord> base;
  std::vector<nexus::harness::BenchRecord> cand;
  if (!load_records(argv[1], &base) || !load_records(argv[2], &cand)) return 2;
  const nexus::harness::PerfdiffResult res =
      nexus::harness::perfdiff_compare(base, cand);
  std::printf("comparing %s (baseline) vs %s (candidate)\n", argv[1], argv[2]);
  std::fputs(res.report.c_str(), stdout);
  return res.ok() ? 0 : 1;
}
