#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash ledger/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/ledger" build -o "$out/ledger-bin" .
# Not exec: the benchmark reads its children's resource usage, and an
# exec'd process would inherit the go build child's counters.
"$out/ledger-bin" "$@"
