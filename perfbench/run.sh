#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags, from the checkout's root:
#
#   bash perfbench/run.sh --workload sweep-grid --seed 1 --seconds 10 --trace 0
#
# Every build artefact stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CARGO_TARGET_DIR="$out"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
