#!/usr/bin/env bash
# The driver's entry point: build the benchmark from this checkout's
# source and run it with the driver's arguments. Everything the build
# writes (binary, Go build cache) stays in .bench_build/ inside the
# checkout. Outside a checkout of the repository (no go.mod beside this
# directory) there is nothing to measure: the script fails before any
# result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/: not a checkout of the repository" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOMODCACHE="$PWD/.bench_build/go-mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
