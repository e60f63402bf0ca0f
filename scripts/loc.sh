#!/usr/bin/env bash
# Code-line counter: non-blank lines of *.cpp/*.hpp that are not `//`
# comments, per top-level directory and per src/nexus/* layer.
#
# Usage:
#   scripts/loc.sh          # count this checkout
#   scripts/loc.sh DIR      # count another checkout (e.g. a parent commit)
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

# Code lines under the given directories.
count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0r cat | grep -cvE '^[[:space:]]*(//|$)' || true
}

for dir in src bench tools tests; do
  if [[ -d "$dir" ]]; then printf '%-22s %6d\n' "$dir" "$(count "$dir")"; fi
done
for layer in src/nexus/*/; do
  printf '%-22s %6d\n' "${layer%/}" "$(count "$layer")"
done
