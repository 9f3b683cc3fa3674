#!/usr/bin/env bash
# Prints, for every package (directory) of the root module and in total, the
# size ledger behind ROADMAP aim 2, read from the working tree: non-test Go
# lines, exported identifiers (top-level functions, types, vars and consts,
# and methods) and settable fields (exported fields of structs named
# *Config or *Options). The line count stays the first column. examples/,
# testdata/ fixtures and the nested benchmark/ module are not part of the
# product and are left out.
# The identifier columns read gofmt-formatted source by layout, not by
# type-checking; TestExportedSurface is the exact check.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%6s %8s %8s  %s\n' lines exported settable package
# The working tree as it stands: tracked files that still exist and new
# files git does not ignore.
git ls-files --cached --others --exclude-standard '*.go' |
  grep -v -e '_test\.go$' -e '^examples/' -e '^benchmark/' -e '\(^\|/\)testdata/' |
  while read -r f; do
    [ -f "$f" ] || continue
    awk -v pkg="$(dirname "$f")" '
      # Counts the exported names of one spec line: "A, b, C int" -> 2.
      function names(s,    n, i, parts) {
        sub(/^[ \t]+/, "", s)
        match(s, /^[A-Za-z0-9_]+(, *[A-Za-z0-9_]+)*/)
        split(substr(s, 1, RLENGTH), parts, /, */)
        for (i in parts) if (parts[i] ~ /^[A-Z]/) n++
        return n
      }
      /^(var|const|type) \($/ { group = 1; next }
      group && /^\)/ { group = 0; next }
      group && /^\t[A-Za-z]/ { exported += names($0); next }
      /^type [A-Za-z0-9_]*(Config|Options) struct \{$/ { settings = 1 }
      settings && /^}/ { settings = 0 }
      settings && /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z0-9_]+)*[ \t]+[^ \t]/ { settable += names($0) }
      /^func (\([^)]*\) )?[A-Z]/ { exported++ }
      /^(var|const|type) [A-Z]/ { exported += names(substr($0, index($0, " ") + 1)) }
      END { printf "%s %d %d %d\n", pkg, NR, exported, settable }
    ' "$f"
  done |
  awk '{ n[$1] += $2; e[$1] += $3; s[$1] += $4; tn += $2; te += $3; ts += $4 }
       END {
         for (p in n) printf "%6d %8d %8d  %s\n", n[p], e[p], s[p], p
         printf "%6d %8d %8d  total\n", tn, te, ts
       }' |
  sort -k4
