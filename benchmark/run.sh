#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it:
#
#   bash benchmark/run.sh --workload kv_read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary, WAL
# files — stays under .bench_build in the checkout. The binary is rebuilt
# only when the toolchain says a source changed, so the second and later
# runs in a checkout start in well under a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/benchmark" . >&2
exec "$out/benchmark" -workdir "$out/run" "$@"
