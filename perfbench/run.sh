#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload redist-chan --seed 1 --seconds 40 --trace 0
#
# Every build and run artifact stays inside the checkout, under
# .bench_build/: the Go build and module caches, the build's temporary
# files, and the go command's user configuration (where it keeps its
# local telemetry counters).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out "$out" "$@"
