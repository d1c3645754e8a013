#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <alock-closed|fig6-sweep|svc-windowed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, trace files and result records) goes under $CARGO_TARGET_DIR,
# or .bench_build when it is unset, inside the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp HOME=$out/home XDG_CONFIG_HOME=$out/home
export GOPATH=$out/home/go GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
