#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash benchmark/run.sh --workload lbm-iroram --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, CPU profiles, the binary) stays under .bench_build/ at
# the repository root. The first run compiles the standard library into that
# cache and takes a minute or two longer.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
