#!/usr/bin/env bash
# Builds cmd/rejectschedd and the benchmark program from source, then runs
# one benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-http --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and trace files go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off

# With a fresh $HOME the go command would fork a detached telemetry
# process that outlives this script; turn telemetry off before any build.
go telemetry off
go build -o "$out/rejectschedd" ./cmd/rejectschedd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/rejectschedd" -trace-dir "$out" "$@"
