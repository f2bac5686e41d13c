#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, sockets and
# span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
