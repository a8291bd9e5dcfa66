#!/bin/bash
# Entry point the benchmark driver runs from the root of a checkout:
#
#   bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./perf from source and runs it. Everything the build writes
# (Go build cache, link temporaries, the binary) stays under .bench_build
# in the checkout. Developers can equally `go run ./perf ...`.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perf/run.sh: run from the root of a checkout of the repository (no go.mod / internal here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod
go build -o "$build/perfbench" ./perf
exec "$build/perfbench" "$@"
