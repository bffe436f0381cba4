#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark from
# source into the checkout's own .bench_build directory — Go's build cache,
# temp files, module path and the toolchain's per-user files (telemetry
# counters, go/env) included, so nothing is written outside the checkout —
# and runs it with the driver's arguments. `go run ./benchmark` works too,
# for people; it uses the user's normal Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off \
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	go build -o "$build/ltbenchmark" ./benchmark
exec "$build/ltbenchmark" -workdir "$build/run" "$@"
