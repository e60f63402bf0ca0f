#!/usr/bin/env bash
# Tier-1 verification entrypoint: configure + build + ctest.
#
# Usage:
#   scripts/check.sh                 # plain RelWithDebInfo build + all tests
#   scripts/check.sh --sanitize      # additional ASan/UBSan build + all tests
#   scripts/check.sh --label unit    # run only suites with the given CTest label
#   scripts/check.sh --bench         # additionally smoke-run every nexus-bench
#                                    # experiment (quick traces) and the three
#                                    # examples, and regenerate the
#                                    # BENCH_*.json trajectory records
#   scripts/check.sh --diff          # --bench, then nexus-perfdiff each
#                                    # regenerated BENCH_*.json against the
#                                    # pre-run copy (nonzero unless every
#                                    # field of every record reproduces)
#   scripts/check.sh --trace         # additionally export the fig9
#                                    # experiment's Chrome trace and validate
#                                    # it with scripts/validate_trace.py
#   scripts/check.sh --prof          # additionally profile the fig9 grid on
#                                    # gaussian-250 at 8 cores (nexus-bench
#                                    # --prof), validate the profile with
#                                    # scripts/validate_profile.py and print
#                                    # each cell's attached/detached wall
#
# Exit code is nonzero if any configure, build, test, smoke, or diff step
# fails.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
BENCH=0
DIFF=0
TRACE=0
PROF=0
LABEL=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize) SANITIZE=1 ;;
    --bench) BENCH=1 ;;
    --diff) BENCH=1; DIFF=1 ;;
    --trace) TRACE=1 ;;
    --prof) PROF=1 ;;
    --label) LABEL="${2:?--label needs an argument (unit|integration)}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

NEXUS_BENCH=build/bench/nexus-bench

JOBS="$(nproc 2>/dev/null || echo 2)"
CTEST_ARGS=(--output-on-failure --no-tests=error -j "${JOBS}")
if [[ -n "${LABEL}" ]]; then
  CTEST_ARGS+=(-L "${LABEL}")
fi

run_pass() {
  local dir="$1"; shift
  echo "==> configure: ${dir} ($*)"
  cmake -B "${dir}" -S . "$@"
  echo "==> build: ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> ctest: ${dir}"
  ctest --test-dir "${dir}" "${CTEST_ARGS[@]}"
}

# Pin the canonical options so a developer's cached -D overrides (e.g.
# NEXUS_WERROR=OFF while iterating) can't silently weaken the tier-1 gate.
run_pass build -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEXUS_SANITIZE=OFF -DNEXUS_WERROR=ON

echo "==> docs link check"
scripts/docs_link_check.sh

if [[ "${SANITIZE}" -eq 1 ]]; then
  run_pass build-asan -DNEXUS_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
fi

if [[ "${BENCH}" -eq 1 ]]; then
  # The experiment table as nexus-bench lists it, one tab-separated line per
  # experiment: name, record file, record flags ("-" for none) and the
  # artefact it reproduces.
  mapfile -t EXPERIMENTS < <("${NEXUS_BENCH}" | grep $'\t')
  if [[ "${#EXPERIMENTS[@]}" -eq 0 ]]; then
    echo "nexus-bench listed no experiments" >&2
    exit 1
  fi
  BENCH_RECORDS=()
  for line in "${EXPERIMENTS[@]}"; do
    IFS=$'\t' read -r _ record _ <<<"${line}"
    if [[ "${record}" != "-" ]]; then BENCH_RECORDS+=("${record}"); fi
  done

  # With --diff, stash the pre-run (normally: committed) record files so the
  # regenerated ones can be compared against them afterwards.
  BASE_DIR=build/perfdiff-baseline
  if [[ "${DIFF}" -eq 1 ]]; then
    rm -rf "${BASE_DIR}"
    mkdir -p "${BASE_DIR}"
    for f in "${BENCH_RECORDS[@]}"; do
      # Plain `[[ -f ]] &&` would fail the errexit shell when the *last*
      # record is a brand-new file with no committed baseline yet.
      if [[ -f "${f}" ]]; then cp "${f}" "${BASE_DIR}/${f}"; fi
    done
  fi

  # Smoke-run every experiment on its reduced (--quick) configuration so
  # bench bit-rot fails here instead of lingering until someone reproduces a
  # paper figure. Output is discarded; a nonzero exit (a self-gate included)
  # fails the check. Then regenerate the machine-readable trajectory records.
  # An experiment whose record flags already hold --quick is left to its
  # record run, which executes the same body and gates.
  echo "==> bench smoke (quick traces)"
  # Each command's wall seconds are printed after it, and the section's
  # total at its end, so a change can quote what the gate costs.
  elapsed() { awk -v t0="$1" -v t1="${EPOCHREALTIME}" 'BEGIN { printf "%.2f", t1 - t0 }'; }
  BENCH_T0="${EPOCHREALTIME}"
  smoke() {
    local t0="${EPOCHREALTIME}"
    echo "--> $*"
    "$@" >/dev/null
    echo "    $(elapsed "${t0}") s"
  }
  for line in "${EXPERIMENTS[@]}"; do
    IFS=$'\t' read -r name record record_flags _ <<<"${line}"
    if [[ "${record}" != "-" && " ${record_flags} " == *" --quick "* ]]; then
      continue
    fi
    smoke "${NEXUS_BENCH}" "${name}" --quick
  done
  # The three examples check themselves: metrics_report exits nonzero when
  # a core's busy/idle ledger does not reconcile, trace_export when the
  # critical-path attribution does not sum to the makespan.
  smoke build/examples/quickstart
  smoke build/examples/metrics_report --workload gaussian-250 --cores 8
  smoke build/examples/trace_export --workload gaussian-250 --cores 8
  for line in "${EXPERIMENTS[@]}"; do
    IFS=$'\t' read -r name record record_flags _ <<<"${line}"
    if [[ "${record}" == "-" ]]; then continue; fi
    if [[ "${record_flags}" == "-" ]]; then record_flags=""; fi
    # shellcheck disable=SC2086  # the flag list splits into words on purpose
    smoke "${NEXUS_BENCH}" "${name}" ${record_flags} --json "${record}"
  done
  echo "==> wrote ${BENCH_RECORDS[*]}"

  if [[ "${DIFF}" -eq 1 ]]; then
    echo "==> perfdiff vs pre-run baselines"
    for f in "${BENCH_RECORDS[@]}"; do
      if [[ -f "${BASE_DIR}/${f}" ]]; then
        echo "--> nexus-perfdiff ${f}"
        build/tools/nexus-perfdiff "${BASE_DIR}/${f}" "${f}"
      else
        echo "--> ${f}: no baseline to diff against (new record file)"
      fi
    done
  fi
  echo "==> bench section: $(elapsed "${BENCH_T0}") s wall"
fi

if [[ "${TRACE}" -eq 1 ]]; then
  # Export one representative lifecycle trace and validate it: JSON
  # well-formed, events sorted, async phases balanced, and the embedded
  # critical-path attribution tiling [0, makespan] exactly.
  echo "==> trace smoke (fig9 Chrome trace export + validation)"
  "${NEXUS_BENCH}" fig9 --trace build/trace_fig9.json
  python3 scripts/validate_trace.py build/trace_fig9.json
fi

if [[ "${PROF}" -eq 1 ]]; then
  # Profile the fig9 workload (the finest-grained run the paper has) and
  # validate the frozen tree's reconciliation invariants: self >= 0
  # everywhere, total == self + children exactly, and the root total within
  # tolerance of the independently measured wall time. Each cell's
  # attached/detached wall ratio is printed as a report, not gated: it is
  # host wall clock. Detached overhead is the contract that must stay at
  # zero, and that one is gated bit-exactly by profiler_test.
  echo "==> profile smoke (nexus-bench fig9 --prof + validation)"
  "${NEXUS_BENCH}" fig9 --quick --workloads=gaussian-250 --cores=8 \
    --prof=build/profile_fig9.json >/dev/null
  python3 scripts/validate_profile.py build/profile_fig9.json
fi

echo "==> all checks passed"
