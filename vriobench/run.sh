#!/usr/bin/env bash
# Builds the benchmark and the vrio-loadgen server from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash vriobench/run.sh --workload net-rr --seed 1 --seconds 20 --trace 0
#   bash vriobench/run.sh --compare parent.jsonl change.jsonl
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the benchmark's records stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config" "$out/vriobench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root/vriobench"
go build -o "$out/bin/vriobench" . >&2
go build -o "$out/bin/vrio-loadgen" vrio/cmd/vrio-loadgen >&2
cd "$root"

exec "$out/bin/vriobench" -loadgen "$out/bin/vrio-loadgen" -out "$out/vriobench" "$@"
