#!/usr/bin/env bash
# Builds gnumap-snp and the benchmark harness from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload repeat-2mb --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the generated inputs,
# outputs, traces and result records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/bin/" gnumap/cmd/gnumap-snp .) >&2
exec "$out/bin/perfbench" "$@"
