#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root
# of a checkout. Arguments pass through, e.g.
#
#   bash e2ebench/run.sh --workload unlock --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the nodes' scratch data live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$out/e2ebench" ./cmd/e2ebench) >&2
exec "$out/e2ebench" -dir "$out" "$@"
