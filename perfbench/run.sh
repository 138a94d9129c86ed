#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-seq --seed 1 --seconds 35 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build). The build needs the repository's
# go.mod next to this directory and fails without it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOENV=off CARGO_TARGET_DIR="$out"
go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
