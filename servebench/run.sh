#!/usr/bin/env bash
# Builds edged, semkb and the benchmark from the tree, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload crowd --seed 1 --seconds 22 --trace 0
#
# Every build output, Go cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/edged ./cmd/semkb
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" --bin-dir "$out/bin" --work-dir "$out/work" "$@"
