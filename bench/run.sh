#!/usr/bin/env bash
# Builds the benchmark program from bench/ and runs it from the repository
# root, passing every argument through:
#
#	bash bench/run.sh --workload t3-cold --seed 1 --seconds 35 --trace 0
#
# Every Go cache, config and output directory lives under .bench_build, so
# a run reads and writes only inside the checkout and never downloads.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
go -C bench build -o "$out/clbench-e2e" .
exec "$out/clbench-e2e" "$@"
