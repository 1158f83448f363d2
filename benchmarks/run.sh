#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
# The driver calls this from the root of a checkout:
#   bash benchmarks/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build and the run write — Go's build cache, the binary,
# WAL directories, traces — stays under .bench_build/ in the working
# directory, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

# The benchmark is its own module (benchmarks/go.mod) that replaces the
# repository's module with the checkout around it, so it always measures
# the code it sits in and does not build without it.
go build -C "$here" -o "$out/prvm-benchmarks" . ||
	go build -C "$here" -buildvcs=false -o "$out/prvm-benchmarks" .
exec "$out/prvm-benchmarks" "$@"
