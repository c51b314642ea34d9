#!/bin/bash
# Builds the benchmark from source and runs it, keeping the Go build cache,
# temporary files and every output under .bench_build in the current
# directory. Run from the repository root:
#
#   bash bench/run.sh --workload search-proof --seed 1 --seconds 20 --trace 0
#
# Flags are those of bench/cmd/bench (see bench/README.md).
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$build/bin/bench" ./cmd/bench
exec "$build/bin/bench" "$@"
