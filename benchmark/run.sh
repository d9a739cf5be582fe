#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources into
# .bench_build/ and runs it with the given arguments. The Go build cache,
# GOPATH and the go command's own config directory are pointed there too,
# so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here" # span files and scratch stores go to out/ beside the sources
go build -o "$build/sladeperf" .
exec "$build/sladeperf" "$@"
