#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run it from the repository root:
#
#   bash benchmark/run.sh --workload cold-topn --seed 42 --seconds 20 --trace 0
#
# It builds the benchmark (a module of its own, see go.mod) and hands over
# to it; the benchmark builds cmd/bellflower-server itself. Everything a
# build leaves behind, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of the bellflower repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOMAXPROCS=2
go build -C "$root/benchmark" -buildvcs=false -o "$build/bellflower-benchmark" .
exec "$build/bellflower-benchmark" "$@"
