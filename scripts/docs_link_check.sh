#!/usr/bin/env bash
# Verify that relative markdown links in README.md and docs/*.md point at
# files that exist, so docs cross-references cannot silently rot. External
# links (http/https) and pure #anchors are skipped; a "path#anchor" link is
# checked for the path part only. Every <Name>.md reference in the code
# under src/, bench/, tests/, tools/ and examples/ (comments and printed
# text alike) must likewise name a file at the repo root or in docs/.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for doc in README.md docs/*.md; do
  [[ -f "${doc}" ]] || continue
  dir="$(dirname "${doc}")"
  # Extract every](target) markdown link target.
  while IFS= read -r target; do
    case "${target}" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [[ -n "${path}" ]] || continue
    # Links are resolved relative to the file that contains them.
    if [[ ! -e "${dir}/${path}" && ! -e "${path}" ]]; then
      echo "broken link in ${doc}: ${target}" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "${doc}" | sed -E 's/^\]\(//; s/\)$//')
done

while IFS=: read -r file line ref; do
  if [[ ! -e "${ref}" && ! -e "docs/${ref}" ]]; then
    echo "dead reference in ${file}:${line}: ${ref}" >&2
    fail=1
  fi
done < <(grep -rnoE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b' src bench tests tools examples)

if [[ "${fail}" -ne 0 ]]; then
  echo "docs link check FAILED" >&2
  exit 1
fi
echo "docs link check OK"
