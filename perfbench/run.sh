#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload engine-unpaced --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write (build cache, binary, data dirs) lands under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
