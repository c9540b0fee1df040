#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# checkout's root with the arguments given. Everything the Go toolchain
# writes (build cache, module cache, its own config and counters) is pointed
# into .bench_build/ too, so nothing is read or written outside the checkout.
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C benchmark -o "$build/gist-benchmark" .
exec "$build/gist-benchmark" "$@"
