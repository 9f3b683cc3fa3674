#!/usr/bin/env bash
# Prints the non-test Go line count of every package (directory) of the
# root module, then the total — the size ledger behind ROADMAP aim 2.
# examples/ and the nested benchmark/ module are not part of the product
# and are left out.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.go' |
  grep -v -e '_test\.go$' -e '^examples/' -e '^benchmark/' |
  while read -r f; do
    printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
  done |
  awk '{ n[$1] += $2; total += $2 }
       END { for (p in n) printf "%6d  %s\n", n[p], p; printf "%6d  total\n", total }' |
  sort -k2
