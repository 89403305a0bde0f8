#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see README.md). Build outputs and the Go build cache stay
# under .bench_build/ at the repository root; no network is used.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOCACHE=$out/go-cache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
mkdir -p "$out"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
