#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments
# given. Everything the Go toolchain writes (build cache, work
# directories, telemetry) is kept under .bench_build in the checkout,
# so a run reads and writes nothing outside it, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
# TMPDIR as well as GOTMPDIR: go build runs the C compiler for cgo packages.
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/jiffy-benchmark" .)
exec "$build/jiffy-benchmark" "$@"
