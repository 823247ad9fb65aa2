#!/usr/bin/env bash
# run.sh — build the programs under test and the benchmark program from
# this checkout, then run the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-short --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, binaries, per-run
# server state, saved results and spans.
set -euo pipefail

ROOT="$(pwd)"
BUILD="${ROOT}/.bench_build"

if [ ! -f "${ROOT}/go.mod" ] || [ ! -d "${ROOT}/cmd/dominod" ]; then
    echo "perfbench: run from the repository root (no go.mod or cmd/dominod here)" >&2
    exit 2
fi

mkdir -p "${BUILD}/bin" "${BUILD}/gocache" "${BUILD}/tmp" "${BUILD}/home"

export GOCACHE="${BUILD}/gocache"
export GOTMPDIR="${BUILD}/tmp"
export TMPDIR="${BUILD}/tmp"
export GOPATH="${BUILD}/gopath"
export HOME="${BUILD}/home"
export XDG_CONFIG_HOME="${BUILD}/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

# The programs under test, built from the root module exactly as shipped.
go build -o "${BUILD}/bin/" ./cmd/dominod ./cmd/dominolb ./cmd/experiments
# The benchmark is its own module; it links the same source tree.
(cd "${ROOT}/perfbench" && go build -o "${BUILD}/bin/perfbench" .)

exec "${BUILD}/bin/perfbench" --build-dir "${BUILD}" "$@"
