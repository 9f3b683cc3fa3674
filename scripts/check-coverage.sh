#!/usr/bin/env bash
# Enforces statement-coverage floors on the packages whose correctness the
# serving path leans on hardest. The floors sit below current coverage
# (~91% each as of PR 3; cluster 98% and labeling 97% as of PR 15, whose
# kernels are pinned to exhaustive references; mapgen 94% and pipeline 89%
# as of PR 19, which made one engine serve every request; the daemon's own
# package 75% as of PR 20, main() and the signal loop being the untested
# rest) so routine changes don't trip them, but a PR that lands a subsystem
# without tests does.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A floors=(
  ["./internal/serve"]=85
  ["./internal/matcher"]=85
  ["./internal/shardrpc"]=80
  ["./internal/cluster"]=85
  ["./internal/labeling"]=85
  ["./internal/mapgen"]=85
  ["./internal/pipeline"]=80
  ["./cmd/bellflower-server"]=70
)

fail=0
for pkg in "${!floors[@]}"; do
  floor=${floors[$pkg]}
  out=$(go test -cover "$pkg" 2>&1 | tail -n 1)
  pct=$(printf '%s\n' "$out" | grep -oE 'coverage: [0-9.]+%' | grep -oE '[0-9.]+' || true)
  if [ -z "$pct" ]; then
    echo "could not read coverage for $pkg: $out" >&2
    fail=1
    continue
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "$pkg coverage ${pct}% is below the ${floor}% floor" >&2
    fail=1
  else
    echo "$pkg coverage ${pct}% >= ${floor}%"
  fi
done
exit "$fail"
