#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh perfbench/run.sh --workload sched-eval --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary and the Go build cache go
# to $CARGO_TARGET_DIR (default .bench_build), so repeated runs only
# relink when a source changed.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
