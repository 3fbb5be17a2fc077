#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the harness from
# source into .bench_build/ at the root of the checkout and runs it with
# the driver's arguments. Everything the Go toolchain writes (build
# cache, module cache, telemetry) is redirected under .bench_build/, so
# a run touches nothing outside the checkout. Fails without printing a
# result when the repository the harness measures is not there.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/home"
(
  cd "$bench"
  env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" \
    GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
    go build -o "$build/bench" .
)
exec "$build/bench" -dir "$bench" "$@"
