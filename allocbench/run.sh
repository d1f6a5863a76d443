#!/usr/bin/env bash
# Builds allocbench from the checkout's sources and runs it. Run it from the
# repository root; the arguments pass through:
#
#   bash allocbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/allocbench" && go build -o "$out/allocbench" .)
exec "$out/allocbench" "$@"
