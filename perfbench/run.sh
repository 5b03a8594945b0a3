#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload native-read --seed 1 --seconds 10 --trace 0
#
# Build output, Go caches and traced spans stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out" "$@"
