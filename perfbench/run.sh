#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload stream16 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and span dumps go under .bench_build/ in
# the current directory; nothing is written elsewhere.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
